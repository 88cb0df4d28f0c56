"""The benchmark tracer's hooks still exist in the package.

perfbench/spans.py wraps public callables where their callers look them
up; a rename in the package would make `--trace 1` fail with
AttributeError.  The tracer is loaded by path, as the benchmark runs it
from a source checkout without installing it.

The benchmark's setup_s and peak_rss_mb include the package import, so
that import stays free of process-pool and package-metadata machinery.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from rotorwkb import QuadraticPhase, Ray, SimParams, cli, rays, runner
from rotorwkb.core import time_grid

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_trace_point_exists():
    spans = load_spans()
    missing = []
    for where, attr, name in spans.TRACE_POINTS:
        module_name, _, class_name = where.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{where} {attr} (span {name})")
    assert not missing, f"trace points without a callable: {missing}"


def test_package_import_loads_no_pool_or_metadata_modules():
    # the sweep imports its process pool when it runs, not at import time
    heavy = ("multiprocessing", "concurrent.futures", "importlib.metadata")
    code = ("import sys, rotorwkb, rotorwkb.cli; "
            f"print(','.join(m for m in {heavy!r} if m in sys.modules))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == ""


# 4 steps at stride 2 observe 3 states; snapshot_stride 1 saves each of
# them, with the start and the final field: 5 files
ROUTE_SPANS = {
    "run-nls": {"runner.build_wavefield": 1, "nls.evolve_nls": 1,
                "observables.record_from_wavefield": 3, "snapshots.save_field": 5},
    "run-wkb": {"runner.build_wkb_state": 1, "hydro.evolve_wkb": 1,
                "observables.record_from_wkb": 3, "snapshots.save_field": 5},
    "run-hydro": {"runner.build_hydro_state": 1, "hydro.evolve_hydro": 1,
                  "observables.record_from_hydro": 3, "snapshots.save_field": 5},
    "run-rays": {"runner.build_ray_bundle": 1, "rays.integrate_rays": 1},
}


@pytest.mark.parametrize("command", sorted(ROUTE_SPANS))
def test_the_tracer_sees_every_layer_of_a_run(tmp_path, command):
    # the tracer patches the names run() calls; a callable that run()
    # bound before the patch would leave its layer without spans
    path = tmp_path / "run.cfg"
    path.write_text("[grid]\npoints = 32 32\nhalf_extent = 4.0 4.0\n"
                    f"[run]\noutdir = {tmp_path / 'o'}\nT = 0.02\ndt = 0.005\n"
                    "stride = 2\nsnapshot_stride = 1\n", encoding="utf-8")
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        assert cli.main([command, str(path)]) == 0
    finally:
        tracer.restore()
    counts = Counter(span["name"] for span in tracer.spans)
    assert counts["runner.run"] == 1
    assert {name: counts[name] for name in ROUTE_SPANS[command]} == ROUTE_SPANS[command]


def test_each_shot_lands_one_ray_under_the_tracer():
    # rays.shoot.landings_per_target counts the rays.integrate_ray children
    # of each rays.eval_phase_general span
    params = SimParams(eps=0.25, Omega=1.0, omega=(1.3, 0.7))
    phase0 = QuadraticPhase(np.array([[0.2, 0.1], [0.1, -0.1]]),
                            np.array([0.1, -0.05]), 0.2)
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        for x in ((0.7, -0.4), (-1.2, 0.3)):
            rays.eval_phase_general(0.3, x, phase0, params)
    finally:
        tracer.restore()
    shots = [s["id"] for s in tracer.spans if s["name"] == "rays.eval_phase_general"]
    landings = Counter(s["parent"] for s in tracer.spans if s["name"] == "rays.integrate_ray")
    assert len(shots) == 2 and landings == Counter(shots)


def test_the_ray_span_counts_the_steps_each_ray_kept():
    # rays.integrate.ray_steps sums the span's steps: a ray that a caustic
    # cuts counts the steps up to its cut, every other ray all n steps.
    # In the unit trap Sigma0 = -2 I focuses at t = pi/2 - arctan 2 = 0.46,
    # a flat phase only at pi/2
    params = SimParams(eps=0.25, Omega=0.0, omega=(1.0, 1.0))
    bundle = [Ray.from_phase((1.0, 0.5), QuadraticPhase(s * np.eye(2), np.zeros(2)))
              for s in (0.0, -2.0, 0.0)]
    n, h = time_grid(1.2, 0.01)
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        trajs = runner.integrate_rays(bundle, 0.01, 1.2, params, store_stride=7)
    finally:
        tracer.restore()
    assert [traj.caustic for traj in trajs] == [False, True, False]
    kept = [round(traj.caustic_time / h) if traj.caustic else n for traj in trajs]
    assert kept[1] < n
    (span,) = [s for s in tracer.spans if s["name"] == "rays.integrate_rays"]
    assert span["steps"] == kept
    metrics = spans.layer_metrics(tracer.spans, 1.0, span["thread"])
    assert metrics["rays.integrate.ray_steps"] == sum(kept)
