"""rotorwkb benchmark driver.

    python3 perfbench/run.py --workload nls-run --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout (the package is imported from
src/, nothing is installed).  A closed loop with one client: operations
run one after another, each in a fresh process (op.py), until --seconds
have passed.  Every operation's outputs are checked (workloads.py); an
operation that exits nonzero or fails its check counts as failed.

--trace 0 reports the end-to-end metrics as medians over the operations.
--trace 1 alternates untraced and traced operations and reports the
per-layer metrics as medians over the traced ones, plus the tracing
overhead.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import SHOOT, WORKLOADS, check, config_text, launch_points

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
OP = HERE / "op.py"
OP_TIMEOUT_S = 120



def declared_metrics(trace: bool) -> list[tuple[str, str]]:
    """(name, unit) of the metrics BENCHMARK.json declares for the mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    return [(m["name"], m["unit"]) for m in declared]


class BenchError(RuntimeError):
    """The benchmark cannot run here (no package, broken set-up)."""


def child_env() -> dict[str, str]:
    """Pinned environment: one BLAS/OpenMP thread, sweep workers capped
    at the cores this process may use, the package from src/."""
    env = dict(os.environ)
    cores = len(os.sched_getaffinity(0))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               ROTORWKB_THREADS=str(min(2, cores)), PYTHONPATH=str(SRC),
               PYTHONHASHSEED="0")
    return env


def check_package(env: dict[str, str]):
    """Import the package once from src/ (also compiles its bytecode, so
    no timed operation pays for that)."""
    if not (SRC / "rotorwkb" / "__init__.py").is_file():
        raise BenchError(f"no rotorwkb package under {SRC}")
    WORK.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(
        [sys.executable, "-c", "import rotorwkb.cli, rotorwkb.rays; print(rotorwkb.__file__)"],
        cwd=WORK, env=env, capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"cannot import rotorwkb:\n{proc.stderr}")
    if not Path(proc.stdout.strip()).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"rotorwkb imported from {proc.stdout.strip()}, not {SRC}")


def _python(args: list[str], cwd: Path, env: dict[str, str], log: Path) -> int:
    with open(log, "w", encoding="utf-8") as fh:
        try:
            return subprocess.run([sys.executable, *args], cwd=cwd, env=env, stdout=fh,
                                  stderr=subprocess.STDOUT, timeout=OP_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            fh.write(f"\nkilled after {OP_TIMEOUT_S} s\n")
            return -1


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def make_inputs(name: str, seed: int, wdir: Path, env: dict[str, str]) -> tuple[Path, list[dict]]:
    """Config file and shooting targets for one run, from the seed alone."""
    inputs = wdir / "inputs"
    inputs.mkdir(parents=True)
    cfg_path = inputs / "run.cfg"
    cfg_path.write_text(config_text(name, seed), encoding="utf-8")
    if name != "rays-shoot":
        return cfg_path, []
    spec = {"config": str(cfg_path), "launch": launch_points(seed), "shoot": SHOOT,
            "result": str(inputs / "targets.json")}
    _write_json(wdir / "targets_spec.json", spec)
    if _python([str(OP), "targets", str(wdir / "targets_spec.json")], wdir, env,
               wdir / "targets.log") != 0:
        raise BenchError(f"target preparation failed, see {wdir / 'targets.log'}")
    return cfg_path, json.loads((inputs / "targets.json").read_text(encoding="utf-8"))


def inputs_digest(wdir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((wdir / "inputs").iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_operation(name: str, k: int, traced: bool, cfg_path: Path, targets: list[dict],
                  wdir: Path, env: dict[str, str]) -> tuple[dict | None, str | None]:
    """One operation in a fresh process: (its result, failure reason)."""
    w = WORKLOADS[name]
    opdir = wdir / f"op{k:03d}"
    opdir.mkdir()
    spec = {"config": str(cfg_path), "argv": [w.argv[0], str(cfg_path), *w.argv[1:]],
            "route": w.route, "trace": traced, "result": str(opdir / "result.json"),
            "targets": [{"x": t["x"]} for t in targets], "shoot": SHOOT}
    _write_json(opdir / "spec.json", spec)
    code = _python([str(OP), "run", str(opdir / "spec.json")], opdir, env, opdir / "log.txt")
    if code != 0:
        return None, f"operation process exited {code}, see {opdir / 'log.txt'}"
    result = json.loads((opdir / "result.json").read_text(encoding="utf-8"))
    if result["code"] != 0:
        return result, f"rotorwkb exited {result['code']}, see {opdir / 'log.txt'}"
    try:
        reason = check(name, opdir / "out", targets, result["shots"])
    except (OSError, KeyError, ValueError) as exc:
        reason = f"unreadable output: {exc!r}"
    shutil.rmtree(opdir / "out", ignore_errors=True)
    return result, reason


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 declared: list[tuple[str, str]], env: dict[str, str]) -> dict:
    wdir = WORK / name
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    cfg_path, targets = make_inputs(name, seed, wdir, env)

    plain, traced, failures = [], [], []
    attempted = 0
    start = time.perf_counter()
    while attempted < (2 if trace else 1) or time.perf_counter() - start < seconds:
        is_traced = trace and attempted % 2 == 1
        result, reason = run_operation(name, attempted, is_traced, cfg_path, targets,
                                       wdir, env)
        attempted += 1
        if reason is not None:
            failures.append(reason)
            print(f"{name}: operation failed: {reason}", file=sys.stderr)
        if result is not None and result["code"] == 0:
            (traced if is_traced else plain).append(result)

    out = {"attempted": attempted, "failed": len(failures), "metrics": {},
           "env": dict(plain[0]["env"] if plain else {}, inputs_sha256=inputs_digest(wdir),
                       seed=seed)}
    if not trace and plain:
        for metric, unit in declared:
            out["metrics"][metric] = {
                "value": statistics.median(r[metric] for r in plain), "unit": unit}
    if trace and plain and traced:
        for metric, unit in declared:
            if metric == "trace.overhead_frac":
                value = (statistics.median(r["wall_s"] for r in traced)
                         / statistics.median(r["wall_s"] for r in plain) - 1.0)
            else:
                value = statistics.median(r["layers"][metric] for r in traced)
            out["metrics"][metric] = {"value": value, "unit": unit}
    return out


def _fmt(metrics: dict) -> str:
    return " | ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = child_env()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        declared = declared_metrics(bool(args.trace))
        check_package(env)
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), declared, env)
                   for n in names}
    except (BenchError, OSError, KeyError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    for n, r in results.items():
        share = r["failed"] / r["attempted"]
        print(f"{n}: {_fmt(r['metrics'])} | failed {r['failed']}/{r['attempted']} "
              f"({100 * share:.1f}%)")
        print(f"{n} env: {json.dumps(r['env'], sort_keys=True)}")
    if any(not r["metrics"] for r in results.values()):
        print("benchmark error: no operation completed", file=sys.stderr)
        return 1

    if args.workload == "all":
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
