"""Command-line entry point.

Subcommands select the solver or utility; flags of the form
--section.key=value override config keys after the file is read.  Exit
status: 0 success, 2 configuration problem, 3 numerical abort.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import replace

from .config import ConfigError, apply_overrides, load_config
from .core import NumericalAbort, WaveField
from .observables import record_from_wavefield, records_to_csv
from .runner import SweepError, compare_fields, epsilon_sweep, run
from .snapshots import load_field

_OVERRIDE = re.compile(r"^--([a-z]+\.[A-Za-z_0-9]+)=(.*)$")
_SOLVER_OF = {"run-nls": "nls", "run-wkb": "wkb",
              "run-hydro": "hydro", "run-rays": "rays"}


def _split_overrides(argv):
    overrides, rest = {}, []
    for arg in argv:
        m = _OVERRIDE.match(arg)
        if m:
            overrides[m.group(1)] = m.group(2)
        else:
            rest.append(arg)
    return overrides, rest


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotorwkb",
        description="Rotating semiclassical NLS: spectral, WKB, hydrodynamic, "
                    "and ray solvers with a shared observables contract.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, solver in _SOLVER_OF.items():
        p = sub.add_parser(name, help=f"run the {solver} solver")
        p.add_argument("config", help="path to a sectioned key=value config")
    p = sub.add_parser("sweep", help="epsilon convergence study")
    p.add_argument("config")
    p.add_argument("--eps", required=True,
                   help="comma-separated, strictly decreasing eps values")
    p.add_argument("--mode", default="both", choices=("nls", "wkb", "both"))
    p = sub.add_parser("compare", help="difference norms of two saved fields")
    p.add_argument("field_a")
    p.add_argument("field_b")
    p = sub.add_parser("observables",
                       help="print observable rows for saved wavefunctions")
    p.add_argument("config")
    p.add_argument("snapshots", nargs="+")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    overrides, rest = _split_overrides(argv)
    parser = _build_parser()
    try:
        ns = parser.parse_args(rest)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(ns, overrides)
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    except SweepError as exc:
        # exit as the failed member's run would; no cause: a nonpositive metric
        cause = exc.__cause__
        if not isinstance(cause, (ValueError, OSError, NumericalAbort, type(None))):
            raise
        kind, code = (("config error", 2) if isinstance(cause, (ValueError, OSError))
                      else ("numerical abort", 3))
        print(f"{kind}: {exc}", file=sys.stderr)
        return code
    except (ValueError, OSError) as exc:  # a ConfigError among them
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def _dispatch(ns: argparse.Namespace, overrides: dict[str, str]) -> int:
    if ns.command == "compare":
        if overrides:
            raise ConfigError("compare takes no --section.key overrides")
        metrics = compare_fields(ns.field_a, ns.field_b)
        for key in ("l1", "l2", "linf", "hs", "gauge_l2"):
            print(f"{key} = {metrics[key]:.17g}")
        return 0

    cfg = load_config(ns.config)
    if ns.command in _SOLVER_OF:
        merged = {**overrides, "run.solver": _SOLVER_OF[ns.command]}
        result = run(apply_overrides(cfg, merged))
        print(f"wrote {result.outdir} ({len(result.records)} observable rows)")
        return 0

    if ns.command == "sweep":
        cfg = apply_overrides(cfg, overrides)
        try:
            eps_list = [float(tok) for tok in ns.eps.split(",") if tok.strip()]
        except ValueError:
            raise ConfigError(f"--eps: expected comma-separated numbers, "
                              f"got {ns.eps!r}")
        result = epsilon_sweep(cfg, eps_list, mode=ns.mode)
        for name in sorted(result.slopes):
            note = "  (floor-limited)" if result.floor_limited[name] else ""
            print(f"slope[{name}] = {result.slopes[name]:.4f}{note}")
        return 0

    if ns.command == "observables":
        cfg = apply_overrides(cfg, overrides)
        records = []
        for path in ns.snapshots:
            snap = load_field(path)
            if snap.eps <= 0:
                raise ConfigError(f"{path}: snapshot has eps = {snap.eps}; "
                                  f"observables need a wavefunction field")
            if snap.kind not in (None, "nls"):
                raise ConfigError(f"{path}: snapshot tag {snap.tag!r} marks a "
                                  f"{snap.kind} field; observables need a "
                                  f"wavefunction field")
            if snap.grid.dim != cfg.sim.dim:
                raise ConfigError(f"{path}: snapshot is {snap.grid.dim}d but "
                                  f"[sim].omega gives {cfg.sim.dim}d")
            psi = WaveField(values=snap.values, t=snap.t, grid=snap.grid,
                            params=replace(cfg.sim, eps=snap.eps), angle=snap.angle)
            records.append(record_from_wavefield(psi))
        sys.stdout.write(records_to_csv(records))
        return 0

    raise ConfigError(f"unknown command {ns.command!r}")


if __name__ == "__main__":
    sys.exit(main())
