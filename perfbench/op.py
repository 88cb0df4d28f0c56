"""One benchmark operation, run in a fresh process.

    python op.py run SPEC.json       one operation, results to SPEC's "result"
    python op.py targets SPEC.json   landing points of seeded forward rays

An operation is what a user runs: rotorwkb.cli.main on a config file,
then (for the shooting workload) rotorwkb.rays.eval_phase_general on
each target.  The process times, with tracing off unless the spec asks:

    setup_s   import rotorwkb, parse the config, build the initial state
              with the runner's public builder for the route
    wall_s    import rotorwkb, then the CLI call and the shots
    peak_rss  ru_maxrss of this process

The set-up build is the benchmark's own extra call; wall_s leaves it out,
because the CLI builds the same state again inside the run.
"""

from __future__ import annotations

import json
import resource
import sys
import threading
import time

BUILDERS = {"nls": "build_wavefield", "wkb": "build_wkb_state",
            "sweep": "build_wkb_state", "rays": "build_ray_bundle"}


def _environment() -> dict:
    import os

    import numpy as np
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        pass
    env = {"python": sys.version.split()[0], "numpy": np.__version__, "blas": blas,
           "fft_backend": "scipy.fft" if "scipy.fft" in sys.modules else "numpy.fft",
           "cpus": len(os.sched_getaffinity(0)),
           "threads": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "ROTORWKB_THREADS")}}
    if "scipy" in sys.modules:
        env["scipy"] = sys.modules["scipy"].__version__
    return env


def run_operation(spec: dict) -> dict:
    t0 = time.perf_counter()
    import rotorwkb  # noqa: F401  (the import is part of what the user waits for)
    import rotorwkb.cli
    import rotorwkb.rays
    import rotorwkb.runner
    t_import = time.perf_counter()

    cfg = rotorwkb.load_config(spec["config"])
    if spec["route"] == "sweep":
        rotorwkb.runner.build_wkb_state(cfg, eps=0.0)
    else:
        getattr(rotorwkb.runner, BUILDERS[spec["route"]])(cfg)
    setup_s = time.perf_counter() - t0

    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    t_main = time.perf_counter()
    code = rotorwkb.cli.main(spec["argv"])
    shots = []
    if code == 0 and spec.get("targets"):
        import numpy as np
        shoot = spec["shoot"]
        params = cfg.sim
        phase = rotorwkb.rays.QuadraticPhase(
            np.array(cfg.phase.sigma0).reshape(2, 2), np.array(cfg.phase.b0),
            cfg.phase.c0)
        for target in spec["targets"]:
            S, grad, _ = rotorwkb.rays.eval_phase_general(
                shoot["t"], target["x"], phase, params, dt=shoot["dt"])
            shots.append({"S": float(S), "grad": [float(g) for g in grad]})
    wall_s = (t_import - t0) + (time.perf_counter() - t_main)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    out = {"code": code, "wall_s": wall_s, "setup_s": setup_s,
           "peak_rss_mb": peak_kib * 1024 / 1e6, "shots": shots,
           "env": _environment()}
    if tracer is not None:
        tracer.restore()
        from spans import layer_metrics
        out["layers"] = layer_metrics(tracer.spans, wall_s, threading.get_ident())
        out["spans"] = len(tracer.spans)
    return out


def forward_targets(spec: dict) -> list[dict]:
    """Land one ray per seeded launch point; the landing point is a
    shooting target and (action, p) there is the expected (S, grad S)."""
    import numpy as np

    import rotorwkb
    import rotorwkb.rays
    cfg = rotorwkb.load_config(spec["config"])
    shoot = spec["shoot"]
    phase = rotorwkb.rays.QuadraticPhase(
        np.array(cfg.phase.sigma0).reshape(2, 2), np.array(cfg.phase.b0), cfg.phase.c0)
    out = []
    for x0 in spec["launch"]:
        ray = rotorwkb.rays.Ray.from_phase(x0, phase)
        n = max(1, round(shoot["t"] / shoot["dt"]))
        traj = rotorwkb.rays.integrate_ray(ray, shoot["dt"], shoot["t"], cfg.sim,
                                           store_stride=n)
        if traj.caustic:
            raise RuntimeError(f"forward ray from {x0} hits a caustic")
        out.append({"launch": list(x0), "x": [float(v) for v in traj.x[-1]],
                    "action": float(traj.action[-1]),
                    "p": [float(v) for v in traj.p[-1]]})
    return out


def main(argv: list[str]) -> int:
    mode, spec_path = argv
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if mode == "run":
        result = run_operation(spec)
    elif mode == "targets":
        result = forward_targets(spec)
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
