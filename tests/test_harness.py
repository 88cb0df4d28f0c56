"""Runner, sweep, and CLI tests: artifact layout, determinism,
convergence bookkeeping, and exit-code contracts."""

import csv
import hashlib
import json
import os
import pickle
import sys
import threading
from contextlib import contextmanager, nullcontext
from dataclasses import replace

import numpy as np
import pytest

import rotorwkb
from rotorwkb import cli, hydro, nls
from rotorwkb.config import ConfigError, RunConfig, parse_config, serialize
from rotorwkb.core import (GridSpec, Nonlinearity, NumericalAbort, SimParams, WaveField,
                           boundary_max, cpu_budget, make_gaussian, turn_field)
from rotorwkb.hydro import HydroState, WKBState, evolve_hydro, evolve_wkb
from rotorwkb.observables import record_from_wavefield
from rotorwkb.runner import (SweepError, _sweep_pool, amplitude_field, build_ray_bundle,
                             build_wavefield, build_wkb_state, compare_fields,
                             epsilon_sweep, run)
from rotorwkb.snapshots import MAGIC, load_field, save_field


def small_cfg(outdir, **kw):
    grid = kw.pop("grid", GridSpec.square(64, 4.0))
    sim = kw.pop("sim", SimParams(eps=0.25, Omega=0.0, omega=(1.0, 1.0)))
    return replace(RunConfig(), grid=grid, sim=sim, outdir=str(outdir), **kw)


def listdir(path):
    return sorted(p.name for p in path.iterdir())


# ---------- single runs ----------


def test_zero_horizon_run_writes_initial_state_only(tmp_path):
    result = run(small_cfg(tmp_path / "o", T=0.0))
    assert listdir(tmp_path / "o") == ["initial.rsfw", "manifest.json",
                                       "observables.csv"]
    assert len(result.records) == 1
    assert result.manifest["n_records"] == 1
    assert result.records[0].t == 0.0


def test_repeat_runs_are_byte_identical(tmp_path):
    out = []
    for name in ("a", "b"):
        cfg = small_cfg(tmp_path / name, T=0.02, solver="nls")
        run(cfg)
        out.append(tmp_path / name)
    for fname in ("observables.csv", "initial.rsfw", "final.rsfw"):
        assert (out[0] / fname).read_bytes() == (out[1] / fname).read_bytes()


def test_manifest_hashes_every_artifact(tmp_path):
    cfg = small_cfg(tmp_path / "o", T=0.01, solver="wkb",
                    snapshot_stride=1, stride=5)
    result = run(cfg)
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    on_disk = set(listdir(tmp_path / "o")) - {"manifest.json"}
    assert set(manifest["artifacts"]) == on_disk
    for name, digest in manifest["artifacts"].items():
        blob = (tmp_path / "o" / name).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == digest
    assert manifest["solver"] == "wkb"
    assert manifest["boundary_leak"] >= 0.0
    assert manifest["wall_time_s"] > 0.0
    assert manifest["versions"]["rotorwkb"] == rotorwkb.__version__
    assert result.manifest == manifest


def test_snapshot_cadence_follows_both_strides(tmp_path):
    # 10 steps at stride 3 gives observer calls at steps 0,3,6,9,10;
    # snapshotting every second call keeps calls 0, 2, and 4.
    cfg = small_cfg(tmp_path / "o", T=0.01, dt=1e-3, solver="nls",
                    stride=3, snapshot_stride=2)
    result = run(cfg)
    assert len(result.records) == 5
    snaps = [n for n in listdir(tmp_path / "o") if n.startswith("snap_")]
    assert snaps == ["snap_000000.rsfw", "snap_000002.rsfw", "snap_000004.rsfw"]


def test_ray_run_writes_a_trajectory_table(tmp_path):
    cfg = small_cfg(tmp_path / "o", T=0.2, solver="rays",
                    sim=SimParams(eps=0.25, Omega=0.3, omega=(1.0, 1.0)),
                    rays_per_axis=2, rays_extent=1.0)
    result = run(cfg)
    with open(tmp_path / "o" / "rays.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["ray", "t", "x1", "x2", "p1", "p2",
                       "det_gamma", "tr_sigma", "action"]
    body = np.array(rows[1:], dtype=float)
    assert set(body[:, 0]) == {0.0, 1.0, 2.0, 3.0}
    # default dt 1e-3 over T = 0.2 at stride 10 stores 21 rows per ray
    assert body.shape == (4 * 21, 9)
    assert result.manifest["boundary_leak"] is None
    # field observables do not apply to rays; the table is header-only
    assert (tmp_path / "o" / "observables.csv").read_text() == \
        "t,mass,energy,m_eps,n,X,xy\n"


def test_every_solver_runs_a_3d_config_through_the_cli(tmp_path):
    # one 16^3 config through all four run subcommands; the hydro route
    # takes the zero phase, as an affine velocity jumps at its periodic seam
    path = tmp_path / "run3d.cfg"
    path.write_text("[sim]\neps = 0.25\nOmega = 0.5\nomega = 1 1 1\n"
                    "[grid]\npoints = 16\nhalf_extent = 6\n"
                    "[run]\nT = 0.05\ndt = 0.005\nstride = 2\n"
                    "phase = quadratic\nsigma0 = 0.1 0 0 0 0.1 0 0 0 0.1\n"
                    "b0 = 0.1 -0.05 0\n", encoding="utf-8")
    for command, extra in (("run-nls", []), ("run-wkb", []),
                           ("run-hydro", ["--run.phase=zero"]), ("run-rays", [])):
        out = tmp_path / command
        assert cli.main([command, str(path), f"--run.outdir={out}"] + extra) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        for name, digest in manifest["artifacts"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
        if command == "run-rays":
            with open(out / "rays.csv", newline="") as fh:
                rays = {row["ray"] for row in csv.DictReader(fh)}
            assert len(rays) == 5 ** 3
            continue
        with open(out / "observables.csv", newline="") as fh:
            mass = np.array([float(row["mass"]) for row in csv.DictReader(fh)])
        assert len(mass) == 6  # t = 0 and every second of 10 steps
        assert np.max(np.abs(mass - mass[0])) < 1e-10 * mass[0]


def test_ray_bundle_is_a_regular_lattice():
    cfg = small_cfg("unused", rays_per_axis=3, rays_extent=1.5,
                    phase=replace(RunConfig().phase, kind="quadratic",
                                  sigma0=(0.2, 0.0, 0.0, 0.2), b0=(0.5, 0.0)))
    bundle = build_ray_bundle(cfg)
    assert len(bundle) == 9
    starts = sorted(tuple(r.x) for r in bundle)
    lattice = sorted((a, b) for a in (-1.5, 0.0, 1.5) for b in (-1.5, 0.0, 1.5))
    assert np.allclose(starts, lattice)
    for ray in bundle:
        np.testing.assert_allclose(ray.p, 0.2 * ray.x + np.array([0.5, 0.0]),
                                   atol=1e-14)
    solo = build_ray_bundle(small_cfg("unused", rays_per_axis=1))
    assert len(solo) == 1 and np.all(solo[0].x == 0.0)


# ---------- field comparison ----------


def test_compare_fields_sees_through_a_global_phase(tmp_path):
    grid = GridSpec.square(32, 2.0)
    rng = np.random.default_rng(7)
    a = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    save_field(tmp_path / "a.rsfw", a, grid, 0.25, 0.0, "test")
    save_field(tmp_path / "b.rsfw", np.exp(1j * np.pi / 3) * a, grid,
               0.25, 0.0, "test")

    same = compare_fields(tmp_path / "a.rsfw", tmp_path / "a.rsfw")
    assert all(v == 0.0 for v in same.values())

    rotated = compare_fields(tmp_path / "a.rsfw", tmp_path / "b.rsfw")
    assert rotated["l2"] > 1.0
    assert rotated["gauge_l2"] < 1e-6
    assert rotated["linf"] > 0.0 and rotated["hs"] > rotated["l2"]


def test_compare_fields_rejects_mismatched_grids(tmp_path):
    g1, g2 = GridSpec.square(32, 2.0), GridSpec.square(64, 2.0)
    save_field(tmp_path / "a.rsfw", np.zeros(g1.shape, complex), g1, 0.1, 0.0, "t")
    save_field(tmp_path / "b.rsfw", np.zeros(g2.shape, complex), g2, 0.1, 0.0, "t")
    with pytest.raises(ValueError) as err:
        compare_fields(tmp_path / "a.rsfw", tmp_path / "b.rsfw")
    assert "header mismatch" in str(err.value)


# ---------- epsilon sweeps ----------


def test_sweep_scores_both_routes_against_the_limit(tmp_path):
    cfg = small_cfg(tmp_path / "sweep", T=0.05)
    result = epsilon_sweep(cfg, (0.5, 0.25, 0.125), mode="both")

    assert result.eps == (0.5, 0.25, 0.125)
    assert set(result.errors) == {"density_l1", "current_l2", "amplitude_l2"}
    for errs in result.errors.values():
        assert all(e > 0 for e in errs)
        assert errs[0] > errs[1] > errs[2]
    # short-horizon orders: the amplitude gap is first order in eps,
    # the density and current gaps land near second order
    assert 0.8 < result.slopes["amplitude_l2"] < 1.2
    assert result.slopes["density_l1"] > 1.5
    assert result.slopes["current_l2"] > 1.5
    assert not any(result.floor_limited.values())
    assert len(result.wall_times) == 3 and all(w > 0 for w in result.wall_times)

    summary = json.loads((tmp_path / "sweep" / "sweep.json").read_text())
    assert summary["complete"] is True
    assert summary["eps"] == [0.5, 0.25, 0.125]
    assert summary["slopes"] == pytest.approx(result.slopes)
    for eps in ("0.5", "0.25", "0.125"):
        assert (tmp_path / "sweep" / f"nls_eps_{eps}" / "manifest.json").exists()
        assert (tmp_path / "sweep" / f"wkb_eps_{eps}" / "manifest.json").exists()


def test_sweep_flags_metrics_at_the_error_floor(tmp_path):
    # a vanishing horizon leaves nothing but roundoff to measure
    sim = SimParams(eps=0.25, Omega=0.0, omega=(1.0, 1.0),
                    nonlinearity=Nonlinearity.from_name("none"))
    cfg = small_cfg(tmp_path / "sweep", sim=sim, T=1e-8)
    result = epsilon_sweep(cfg, (0.25, 0.125, 0.0625), mode="both")
    assert all(result.floor_limited.values())
    assert all(max(v) < 1e-7 for v in result.errors.values())


def test_sweep_validates_the_eps_list(tmp_path):
    cfg = small_cfg(tmp_path / "s")
    with pytest.raises(ConfigError) as err:
        epsilon_sweep(cfg, (0.5, 0.25))
    assert "needs >= 3" in str(err.value)
    for bad in [(0.1, 0.2, 0.3), (0.5, 0.25, 0.25), (0.5, 0.25, -0.1),
                (0.5, 0.25, float("nan")), (float("inf"), 0.5, 0.25)]:
        with pytest.raises(ConfigError) as err:
            epsilon_sweep(cfg, bad)
        assert "strictly decreasing" in str(err.value)
        # rejected before anything starts: no output directory
        assert not (tmp_path / "s").exists()
    with pytest.raises(ConfigError) as err:
        epsilon_sweep(cfg, (0.5, 0.25, 0.125), mode="fast")
    assert "sweep mode" in str(err.value)


def test_sweep_refuses_a_horizon_that_is_not_positive(tmp_path, capsys):
    # at T = 0 every member is the reference: no error to fit a slope to
    for T in (0.0, -0.5):
        cfg = small_cfg(tmp_path / "s", grid=GridSpec.square(32, 4.0), T=T)
        with pytest.raises(ConfigError, match=r"^\[run\]\.T: "):
            epsilon_sweep(cfg, (0.5, 0.25, 0.125), mode="both")
        assert not (tmp_path / "s").exists()
    path = tmp_path / "run.cfg"
    path.write_text("[grid]\npoints = 32 32\nhalf_extent = 4.0 4.0\n"
                    f"[run]\noutdir = {tmp_path / 'sweep'}\nT = 0\n", encoding="utf-8")
    for mode in ("both", "wkb"):
        assert cli.main(["sweep", str(path), "--eps", "0.25,0.125,0.0625",
                         "--mode", mode]) == 2
        assert capsys.readouterr().err.startswith("config error: [run].T: ")
        assert not (tmp_path / "sweep").exists()


def test_sweep_takes_a_config_only_where_its_runs_would(tmp_path, capsys):
    # vortex data is refused by run-wkb, so by the sweep in every mode:
    # the eps = 0 reference is a WKB run in nls mode too
    path = tmp_path / "v.cfg"
    path.write_text("[grid]\npoints = 32 32\nhalf_extent = 4.0 4.0\n"
                    f"[run]\noutdir = {tmp_path / 'sweep'}\nT = 0.01\n"
                    "initial = vortex\n", encoding="utf-8")
    assert cli.main(["run-wkb", str(path)]) == 2
    for mode in ("both", "wkb", "nls"):
        assert cli.main(["sweep", str(path), "--eps", "0.5,0.25,0.125",
                         "--mode", mode]) == 2
        assert "[run].initial: vortex data" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()
    # a phase file is the nls route's alone, and the reference refuses it
    grid = GridSpec.square(32, 4.0)
    save_field(tmp_path / "phase.rsfw", np.zeros(grid.shape), grid, 0.0, 0.0, "phase")
    cfg = small_cfg(tmp_path / "sweep", grid=grid, T=0.01, solver="nls",
                    phase=replace(RunConfig().phase, kind="file",
                                  path=str(tmp_path / "phase.rsfw")))
    with pytest.raises(ConfigError, match=r"^\[run\]\.phase: solver 'wkb'"):
        epsilon_sweep(cfg, (0.5, 0.25, 0.125), mode="nls")
    assert not (tmp_path / "sweep").exists()

    # what a sweep does run, a run takes: every member's config parses
    path.write_text(path.read_text().replace("initial = vortex", "initial = gaussian"),
                    encoding="utf-8")
    assert cli.main(["sweep", str(path), "--eps", "0.5,0.25,0.125"]) == 0
    members = sorted((tmp_path / "sweep").glob("*_eps_*/manifest.json"))
    assert len(members) == 6
    for manifest in members:
        cfg = parse_config(json.loads(manifest.read_text())["config"])
        assert manifest.parent.name == f"{cfg.solver}_eps_{cfg.sim.eps:g}"


def test_failed_member_aborts_the_sweep_but_keeps_survivors(tmp_path):
    # dt sits between the dispersive step bounds of the largest and the
    # smaller eps values, so exactly the eps = 0.25 member is rejected
    cfg = small_cfg(tmp_path / "sweep", T=0.1, dt=0.02)
    with pytest.raises(SweepError) as err:
        epsilon_sweep(cfg, (0.25, 0.125, 0.0625), mode="wkb")
    assert "eps = 0.25" in str(err.value)
    assert isinstance(err.value.__cause__, ConfigError)

    summary = json.loads((tmp_path / "sweep" / "sweep.json").read_text())
    assert summary["complete"] is False
    assert summary["eps"] == [0.125, 0.0625]
    assert len(summary["errors"]["amplitude_l2"]) == 2
    assert "amplitude_l2" in summary["slopes"]


def test_thread_cap_env_is_validated(tmp_path, monkeypatch):
    sim = SimParams(eps=0.25, Omega=0.0, omega=(1.0, 1.0),
                    nonlinearity=Nonlinearity.from_name("none"))
    cfg = small_cfg(tmp_path / "s", sim=sim, T=1e-8)
    monkeypatch.setenv("ROTORWKB_THREADS", "abc")
    with pytest.raises(ConfigError, match="must be an integer"):
        epsilon_sweep(cfg, (0.25, 0.125, 0.0625), mode="wkb")
    monkeypatch.setenv("ROTORWKB_THREADS", "0")
    with pytest.raises(ConfigError, match=">= 1"):
        epsilon_sweep(cfg, (0.25, 0.125, 0.0625), mode="wkb")
    monkeypatch.setenv("ROTORWKB_THREADS", "1")
    result = epsilon_sweep(cfg, (0.25, 0.125, 0.0625), mode="wkb")
    assert result.eps == (0.25, 0.125, 0.0625)


def test_sweep_values_survive_a_pickle_round_trip(tmp_path):
    # the configs, final states and exceptions the sweep's worker
    # processes receive and send back
    abort = pickle.loads(pickle.dumps(NumericalAbort("blew up", 7, 0.25)))
    assert (str(abort), abort.step, abort.t) == ("blew up", 7, 0.25)

    for name in ("cubic", "none"):
        sim = SimParams(eps=0.25, nonlinearity=Nonlinearity.from_name(name))
        cfg = small_cfg(tmp_path, sim=sim, grid=GridSpec.square(16, 4.0))
        back = pickle.loads(pickle.dumps(cfg))
        assert back == cfg
        rho = np.linspace(0.0, 2.0, 5)
        np.testing.assert_array_equal(back.sim.nonlinearity.f(rho),
                                      cfg.sim.nonlinearity.f(rho))

    for state in (build_wavefield(cfg), build_wkb_state(cfg)):
        back = pickle.loads(pickle.dumps(state))
        assert type(back) is type(state)
        for name, value in vars(state).items():
            got = getattr(back, name)
            if isinstance(value, np.ndarray):
                np.testing.assert_array_equal(got, value)
                assert not got.flags.writeable
            elif name != "drift":
                assert got == value
        if hasattr(state, "drift"):
            np.testing.assert_array_equal(back.drift.Sigma, state.drift.Sigma)


def test_reference_abort_reaches_the_sweep_caller(tmp_path):
    # the flat phase of test_drift_caustic_aborts_the_wkb_march: the eps = 0
    # reference runs in a worker process, and its abort arrives intact
    cfg = small_cfg(tmp_path / "sweep", grid=GridSpec.square(32, 4.0),
                    T=2.0, dt=0.01)
    with pytest.raises(NumericalAbort, match="caustic") as info:
        epsilon_sweep(cfg, (0.25, 0.125, 0.0625), mode="wkb")
    assert info.value.step == 158
    assert info.value.t == pytest.approx(np.pi / 2.0, abs=0.005)
    assert not (tmp_path / "sweep" / "sweep.json").exists()


def sweep_outputs(out):
    """A small two-route sweep into out: sweep.json without its wall
    times, and the artifact hashes of every member's manifest."""
    epsilon_sweep(small_cfg(out, grid=GridSpec.square(32, 4.0), T=0.02),
                  (0.5, 0.25, 0.125), mode="both")
    summary = json.loads((out / "sweep.json").read_text())
    del summary["wall_times_s"]
    hashes = {m.parent.name: json.loads(m.read_text())["artifacts"]
              for m in out.glob("*/manifest.json")}
    return summary, hashes


@contextmanager
def other_thread():
    """A live second thread in the caller for the duration of a block."""
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        yield
    finally:
        release.set()
        thread.join(timeout=10)
        assert not thread.is_alive()


def test_sweep_output_does_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    def sweep(workers):
        monkeypatch.setenv("ROTORWKB_THREADS", str(workers))
        return sweep_outputs(tmp_path / f"w{workers}")

    one, two = sweep(1), sweep(2)
    assert one == two
    assert len(one[1]) == 6


def test_sweep_output_does_not_depend_on_the_start_method(tmp_path):
    # a single-threaded caller forks its workers, one with threads spawns them
    forked = sweep_outputs(tmp_path / "fork")
    with other_thread():
        spawned = sweep_outputs(tmp_path / "spawn")
    assert forked == spawned
    assert len(forked[1]) == 6


class Started(Exception):
    pass


def record_start_methods(monkeypatch):
    """The start methods that sweeps ask multiprocessing.get_context for
    from now on; each request raises Started, so no pool starts."""
    import multiprocessing

    methods = []

    def get_context(method):
        methods.append(method)
        raise Started  # the rule is all these tests look at: start no pool

    monkeypatch.setattr(multiprocessing, "get_context", get_context)
    return methods


def test_sweep_forks_only_from_a_single_threaded_linux_caller(tmp_path, monkeypatch):
    methods = record_start_methods(monkeypatch)
    cfg = small_cfg(tmp_path / "s", T=0.02)
    eps = (0.5, 0.25, 0.125)
    with pytest.raises(Started):
        epsilon_sweep(cfg, eps)
    with other_thread(), pytest.raises(Started):
        epsilon_sweep(cfg, eps)
    monkeypatch.setattr(sys, "platform", "darwin")
    with pytest.raises(Started):
        epsilon_sweep(cfg, eps)
    monkeypatch.undo()
    expected = "fork" if sys.platform == "linux" else "spawn"
    assert methods == [expected, "spawn", "spawn"]


def test_march_threads_end_with_the_march(tmp_path, monkeypatch):
    # a budget of 2 cuts 256^2 into 2 strips, the second on a thread of
    # the march; however the march ends, that thread is gone after it,
    # so a sweep started next still forks its workers
    monkeypatch.setenv("ROTORWKB_THREADS", "2")
    grid = GridSpec.square(256, 8.0)
    params = SimParams(eps=0.25, Omega=0.5, omega=(1.0, 1.0))
    a0 = make_gaussian(grid)
    entry = threading.active_count()
    during = []

    def count(t, state):
        during.append(threading.active_count())

    def stop(t, state):
        if t > 0:
            raise Started

    evolve_wkb(WKBState.from_amplitude(a0, grid, params), T=0.004, dt=0.002,
               observer=count)
    assert during[-1] == entry + 1
    assert threading.active_count() == entry
    # no drift and no sponge: the trap drives v at the box corners past
    # the bound in the first step
    still = replace(params, Omega=0.0)
    with pytest.raises(NumericalAbort, match=r"advective step bound .* in step 2 "):
        evolve_hydro(HydroState(a0 ** 2, np.zeros((2,) + grid.shape), 0.0, grid,
                                still), T=0.5, dt=0.06, sponge_strength=0.0)
    assert threading.active_count() == entry
    with pytest.raises(NumericalAbort, match="non-finite samples"):
        evolve_wkb(WKBState.from_amplitude(1e160 * a0, grid, params), T=0.004,
                   dt=0.002)
    assert threading.active_count() == entry
    with pytest.raises(Started):
        evolve_wkb(WKBState.from_amplitude(a0, grid, params), T=0.004, dt=0.002,
                   observer=stop)
    assert threading.active_count() == entry
    assert not [t for t in threading.enumerate() if t.name.startswith("rotorwkb")]

    methods = record_start_methods(monkeypatch)
    with pytest.raises(Started):
        epsilon_sweep(small_cfg(tmp_path / "s", T=0.02), (0.5, 0.25, 0.125))
    assert methods == ["fork" if sys.platform == "linux" else "spawn"]


def test_sweep_workers_have_a_budget_of_one(monkeypatch):
    # forked or spawned, every worker marches in one strip: the workers
    # already share the caller's CPUs
    monkeypatch.setenv("ROTORWKB_THREADS", "2")
    for caller in (nullcontext(), other_thread()):
        with caller, _sweep_pool(2) as pool:
            assert pool.submit(cpu_budget).result(timeout=60) == 1
    assert cpu_budget() == 2


def test_worker_count_is_capped_by_the_usable_cpus(monkeypatch):
    monkeypatch.delenv("ROTORWKB_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert cpu_budget() == 3
    monkeypatch.setenv("ROTORWKB_THREADS", "5")
    assert cpu_budget() == 5
    # a sweep starts no more workers than it has tasks; building the pool
    # without a task starts no process
    for n_jobs, workers in ((2, 2), (7, 5)):
        with _sweep_pool(n_jobs) as pool:
            assert pool._max_workers == workers
    for raw, message in (("abc", "must be an integer"), ("0", ">= 1")):
        monkeypatch.setenv("ROTORWKB_THREADS", raw)
        with pytest.raises(ValueError, match=message):
            cpu_budget()
    monkeypatch.delenv("ROTORWKB_THREADS")
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cpu_budget() == 16


# ---------- command line ----------


def write_cfg(path, outdir, extra=""):
    path.write_text("[grid]\npoints = 64 64\nhalf_extent = 4.0 4.0\n"
                    f"[run]\noutdir = {outdir}\n" + extra,
                    encoding="utf-8")
    return str(path)


def test_cli_run_subcommand_forces_its_solver(tmp_path, capsys):
    # the config says wkb; the nls subcommand must win
    path = write_cfg(tmp_path / "run.cfg", tmp_path / "o",
                     "T = 0.0\nsolver = wkb\n")
    assert cli.main(["run-nls", path]) == 0
    assert "wrote" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["solver"] == "nls"


def test_cli_overrides_reach_the_run(tmp_path):
    path = write_cfg(tmp_path / "run.cfg", tmp_path / "ignored", "T = 5.0\n")
    out = tmp_path / "o2"
    assert cli.main(["run-nls", path, "--run.T=0.0",
                     f"--run.outdir={out}"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert "T = 0.0" in manifest["config"]


def test_cli_march_refuses_a_bad_thread_cap_before_writing(tmp_path, monkeypatch, capsys):
    # the budget sets the WKB and hydro strips: a bad value is exit 2
    # before the run's directory or any artifact exists
    monkeypatch.setenv("ROTORWKB_THREADS", "abc")
    for command in ("run-wkb", "run-hydro"):
        out = tmp_path / command
        path = write_cfg(tmp_path / "run.cfg", out, "T = 0.01\n")
        assert cli.main([command, path]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: ROTORWKB_THREADS must be an integer")
        assert not out.exists()


def test_cli_reports_config_errors_with_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("[sim]\neps = -1.0\n", encoding="utf-8")
    assert cli.main(["run-nls", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert cli.main(["run-nls", str(tmp_path / "missing.cfg")]) == 2
    # overrides on a valid file, so the override is what fails
    path.write_text("[sim]\neps = 0.25\n", encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["run-nls", str(path), "--run.T=0.0", "--bogus.key=1"]) == 2
    assert "unknown section [bogus]" in capsys.readouterr().err
    assert cli.main(["run-nls", str(path), "--run.stride=1e400"]) == 2
    assert "[run].stride: must be finite" in capsys.readouterr().err


def test_cli_refuses_a_step_count_above_the_cap(tmp_path, capsys, monkeypatch):
    # finite T and dt whose march would never end: exit 2 before any step.
    # Without the cap the march would start, and fail here on the missing plan
    monkeypatch.setattr(nls, "SplitStepPlan", None)
    path = write_cfg(tmp_path / "run.cfg", tmp_path / "o")
    assert cli.main(["run-nls", path, "--run.dt=1e-300"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "more than MAX_STEPS" in err


def test_cli_checks_the_step_bounds_once_per_run(tmp_path, capsys, monkeypatch):
    # the rotation drift bounds the advective step on both routes, so
    # dt = 0.5 is rejected by run-wkb and run-hydro alike
    calls, real = [], hydro.cfl_limits

    def counted(state):
        calls.append(state)
        return real(state)

    monkeypatch.setattr(hydro, "cfl_limits", counted)
    path = tmp_path / "run.cfg"
    path.write_text("[sim]\nOmega = 0.5\n[grid]\npoints = 64 64\nhalf_extent = 4.0 4.0\n"
                    f"[run]\noutdir = {tmp_path / 'o'}\nT = 0.002\nphase = zero\n",
                    encoding="utf-8")
    for command in ("run-wkb", "run-hydro"):
        calls.clear()
        assert cli.main([command, str(path), "--run.dt=0.5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [run].dt:") and "step bounds" in err
        assert len(calls) == 1
        calls.clear()
        assert cli.main([command, str(path), "--run.dt=0.001"]) == 0
        assert len(calls) == 1


@pytest.mark.parametrize("command", ["run-nls", "run-wkb", "run-hydro", "run-rays"])
def test_cli_zero_horizon_observes_the_start_once(tmp_path, command):
    path = write_cfg(tmp_path / "run.cfg", tmp_path / "o",
                     "T = 1.0\nphase = zero\nrays_per_axis = 3\n")
    assert cli.main([command, path, "--run.T=0"]) == 0
    name = "rays.csv" if command == "run-rays" else "observables.csv"
    with open(tmp_path / "o" / name, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(row["t"]) for row in rows] == [0.0] * len(rows)
    if command == "run-rays":
        assert [row["ray"] for row in rows] == [str(i) for i in range(3 ** 2)]
    else:
        assert len(rows) == 1


def test_cli_ray_run_writes_no_row_past_the_focus(tmp_path):
    # the default flat phase in the unit trap focuses every ray at pi/2;
    # at dt = 0.05 the samples beside the focus sit far above the det floor
    path = tmp_path / "rays.cfg"
    path.write_text("[grid]\npoints = 32 32\nhalf_extent = 4.0 4.0\n"
                    f"[run]\noutdir = {tmp_path / 'o'}\nT = 2.0\ndt = 0.05\n"
                    "stride = 1\n", encoding="utf-8")
    assert cli.main(["run-rays", str(path)]) == 0
    with open(tmp_path / "o" / "rays.csv", newline="") as fh:
        last = {row["ray"]: float(row["t"]) for row in csv.DictReader(fh)}
    assert len(last) == 5 ** 2
    assert all(np.pi / 2 - 0.05 <= t < np.pi / 2 for t in last.values())
    # the manifest says that a focus, not T, cut every ray, and when
    ledger = json.loads((tmp_path / "o" / "manifest.json").read_text())["ledger"]
    assert ledger["caustic_count"] == 5 ** 2
    assert ledger["first_caustic_time"] == pytest.approx(1.55, abs=1e-12)


def test_ray_ledger_of_a_bundle_that_meets_no_caustic(tmp_path):
    # the rays-shoot data of the benchmark: every ray reaches T
    path = tmp_path / "rays.cfg"
    path.write_text("[sim]\neps = 0.25\nOmega = 0.5\nomega = 1.0 1.0\n"
                    "[grid]\npoints = 64 64\nhalf_extent = 8.0 8.0\n"
                    f"[run]\noutdir = {tmp_path / 'o'}\nT = 0.1\ndt = 0.0001\n"
                    "stride = 100\nphase = quadratic\nsigma0 = 0.2 0.1 0.1 -0.1\n"
                    "b0 = 0.3 -0.2\nc0 = 0.1\nrays_per_axis = 15\nrays_extent = 2.0\n",
                    encoding="utf-8")
    assert cli.main(["run-rays", str(path)]) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["ledger"] == {"caustic_count": 0, "first_caustic_time": None}


def test_cli_maps_numerical_aborts_to_exit_3(tmp_path, capsys):
    # an affine carrier velocity jumps at the periodic seam and the
    # hydrodynamic route blows up there; the CLI reports it as status 3
    path = write_cfg(tmp_path / "run.cfg", tmp_path / "o",
                     "T = 3.0\nphase = quadratic\n"
                     "sigma0 = 0.3 0.1 0.1 -0.2\n")
    assert cli.main(["run-hydro", path]) == 3
    assert capsys.readouterr().err.startswith("numerical abort:")
    # a flat carrier phase in the unit trap focuses at t = pi/2, so the
    # WKB drift meets a caustic inside the run
    path = write_cfg(tmp_path / "focus.cfg", tmp_path / "f", "T = 2.0\n")
    assert cli.main(["run-wkb", path]) == 3
    assert "caustic" in capsys.readouterr().err
    # the same focusing drift before its caustic: a fixed step that passed
    # the start-up check meets the growing drift speed mid-run
    path = tmp_path / "bound.cfg"
    path.write_text("[grid]\npoints = 32 32\nhalf_extent = 4.0 4.0\n"
                    f"[run]\noutdir = {tmp_path / 'b'}\nT = 1.4\ndt = 0.01\n",
                    encoding="utf-8")
    assert cli.main(["run-wkb", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical abort:")
    assert "advective step bound" in err and "step 116 (t = 1.15)" in err


def test_cli_sweep_prints_slopes_and_validates_eps(tmp_path, capsys):
    path = write_cfg(tmp_path / "run.cfg", tmp_path / "sweep",
                     "T = 1e-8\n")
    extra = "[sim]\nnonlinearity = none\n"
    (tmp_path / "run.cfg").write_text(extra +
                                      (tmp_path / "run.cfg").read_text(),
                                      encoding="utf-8")
    assert cli.main(["sweep", path, "--eps", "0.25,0.125,0.0625",
                     "--mode", "wkb"]) == 0
    out = capsys.readouterr().out
    assert "slope[amplitude_l2]" in out and "(floor-limited)" in out

    assert cli.main(["sweep", path, "--eps", "0.25,0.125"]) == 2
    assert cli.main(["sweep", path, "--eps", "0.25,abc,0.1"]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err


def test_cli_partial_sweep_failure_exits_2_for_config_causes(tmp_path, capsys):
    path = write_cfg(tmp_path / "run.cfg", tmp_path / "sweep",
                     "T = 0.1\ndt = 0.02\n")
    rc = cli.main(["sweep", path, "--eps", "0.25,0.125,0.0625",
                   "--mode", "wkb"])
    assert rc == 2
    assert "eps = 0.25" in capsys.readouterr().err


def test_cli_sweep_names_the_config_key_of_a_too_large_dt(tmp_path, capsys):
    # the eps = 0 reference rejects the step first, as run-wkb does
    path = tmp_path / "run.cfg"
    path.write_text("[sim]\nOmega = 0.5\n[grid]\npoints = 32 32\nhalf_extent = 4.0 4.0\n"
                    f"[run]\noutdir = {tmp_path / 'sweep'}\nT = 0.1\ndt = 5\n",
                    encoding="utf-8")
    assert cli.main(["sweep", str(path), "--eps", "0.25,0.125,0.0625",
                     "--mode", "wkb"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [run].dt: evolve_wkb:") and "step bounds" in err


def test_cli_compare_prints_the_metric_block(tmp_path, capsys):
    grid = GridSpec.square(32, 2.0)
    vals = np.full(grid.shape, 0.5 + 0.5j)
    save_field(tmp_path / "a.rsfw", vals, grid, 0.1, 0.0, "t")
    save_field(tmp_path / "b.rsfw", 2.0 * vals, grid, 0.1, 0.0, "t")
    rc = cli.main(["compare", str(tmp_path / "a.rsfw"), str(tmp_path / "b.rsfw")])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(" = ")[0] for line in out] == \
        ["l1", "l2", "linf", "hs", "gauge_l2"]
    assert float(out[2].split(" = ")[1]) == pytest.approx(abs(0.5 + 0.5j))

    assert cli.main(["compare", str(tmp_path / "a.rsfw"),
                     str(tmp_path / "b.rsfw"), "--run.T=0.0"]) == 2
    assert cli.main(["compare", str(tmp_path / "a.rsfw"),
                     str(tmp_path / "missing.rsfw")]) == 2


def test_cli_compare_refuses_two_kinds_of_field(tmp_path, capsys):
    # psi at dt against psi at dt/2 compares; psi against a WKB amplitude
    # on the same grid is a config error that names both files and tags
    path = write_cfg(tmp_path / "run.cfg", tmp_path / "nls", "T = 0.05\ndt = 0.01\n")
    for command, extra in (("run-nls", []), ("run-nls", ["--run.dt=0.005"]),
                           ("run-wkb", [])):
        out = tmp_path / f"{command}{len(extra)}"
        assert cli.main([command, path, f"--run.outdir={out}"] + extra) == 0
    psi, half, amp = (str(tmp_path / name / "final.rsfw")
                      for name in ("run-nls0", "run-nls1", "run-wkb0"))
    assert cli.main(["compare", psi, half]) == 0
    capsys.readouterr()
    assert cli.main(["compare", psi, amp]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert all(name in err for name in (psi, amp, "'nls-final'", "'wkb-final'"))


ROTATING = "[sim]\nOmega = 0.5\nomega = 1.0 1.5\n"


def _rotating_nls_final(tmp_path):
    """The final.rsfw of a short run-nls in an anisotropic rotating trap,
    held in its frame, and the config that wrote it."""
    path = write_cfg(tmp_path / "run.cfg", tmp_path / "o",
                     "T = 0.4\ndt = 0.02\ncenter = 1.0 0.5\n" + ROTATING)
    assert cli.main(["run-nls", path]) == 0
    final = tmp_path / "o" / "final.rsfw"
    assert load_field(final).angle == pytest.approx(0.5 * 0.4, rel=1e-14)
    return final, path


def test_compare_reads_an_nls_final_at_its_angle(tmp_path, capsys):
    # the same field saved at angle 0: compare turns the second file to
    # the first one's angle, in either order
    final, _ = _rotating_nls_final(tmp_path)
    snap = load_field(final)
    lab = tmp_path / "lab.rsfw"
    save_field(lab, turn_field(snap.values, snap.grid, snap.angle), snap.grid,
               snap.eps, snap.t, snap.tag)
    assert all(value == 0.0 for value in compare_fields(lab, final).values())
    forward = compare_fields(final, lab)
    assert forward["l2"] < 1e-12 and forward["gauge_l2"] < 1e-12
    assert cli.main(["compare", str(final), str(lab)]) == 0
    assert "gauge_l2 = " in capsys.readouterr().out


def test_vortex_config_honours_its_center():
    # the config's centre places the vortex: its zero at the centre node,
    # and its density centroid there; a centred config keeps its samples
    text = "[grid]\npoints = 64 64\nhalf_extent = 8.0 8.0\n[run]\ninitial = vortex\n"
    grid = GridSpec.square(64, 8.0)
    a = amplitude_field(parse_config(text + "center = 2.0 1.0\n"))
    rho = np.abs(a) ** 2
    assert a[40, 36] == 0.0  # the node (2, 1)
    for X, c in zip(grid.meshes, (2.0, 1.0)):
        assert float(np.sum(X * rho) / np.sum(rho)) == pytest.approx(c, abs=1e-12)
    centred = amplitude_field(parse_config(text))
    assert centred.tobytes() == rotorwkb.make_vortex_init(grid, 1).tobytes()


def test_initial_file_of_an_nls_final_is_its_lab_field(tmp_path):
    final, path = _rotating_nls_final(tmp_path)
    snap = load_field(final)
    cfg = rotorwkb.apply_overrides(rotorwkb.load_config(path),
                                   {"run.initial": f"file:{final}"})
    lab = amplitude_field(cfg)
    np.testing.assert_array_equal(lab, turn_field(snap.values, snap.grid, snap.angle))
    assert np.max(np.abs(lab - snap.values)) > 1e-3
    # the lab samples carry the frame state's record, the trap and xy
    # included, up to what the turn loses where the field meets the box
    sim = replace(cfg.sim, eps=snap.eps)
    at_angle = record_from_wavefield(WaveField(snap.values, snap.t, snap.grid, sim,
                                               snap.angle))
    on_lab = record_from_wavefield(WaveField(lab, snap.t, snap.grid, sim))
    for name in ("mass", "energy", "m_eps", "n", "X", "xy"):
        assert getattr(on_lab, name) == pytest.approx(getattr(at_angle, name), rel=1e-6)


def test_cli_observables_matches_the_run_table(tmp_path, capsys):
    # every observed state is snapshotted, so scoring the snapshots
    # reproduces the run's own table, rotation energy and torque included
    path = write_cfg(tmp_path / "run.cfg", tmp_path / "o",
                     "T = 0.01\nstride = 2\nsnapshot_stride = 1\nphase = quadratic\n"
                     "sigma0 = 0.1 0.05 0.05 -0.1\nb0 = 0.3 0\n" + ROTATING)
    assert cli.main(["run-nls", path]) == 0
    capsys.readouterr()
    snaps = sorted(str(p) for p in (tmp_path / "o").glob("snap_*.rsfw"))
    assert len(snaps) == 6
    assert cli.main(["observables", path] + snaps) == 0
    assert capsys.readouterr().out == \
        (tmp_path / "o" / "observables.csv").read_text()


def test_cli_observables_rejects_wkb_amplitudes(tmp_path, capsys):
    # run-wkb saves the amplitude a at eps > 0; scoring it as psi would
    # print another state's numbers
    path = write_cfg(tmp_path / "run.cfg", tmp_path / "o",
                     "T = 0.01\ndt = 0.005\nsnapshot_stride = 1\n" + ROTATING)
    assert cli.main(["run-wkb", path]) == 0
    capsys.readouterr()
    fields = sorted((tmp_path / "o").glob("*.rsfw"))
    assert [p.name for p in fields] == ["final.rsfw", "initial.rsfw", "snap_000000.rsfw",
                                        "snap_000001.rsfw"]
    for field, tag in zip(fields, ("wkb-final", "wkb-amplitude", "wkb-amplitude",
                                   "wkb-amplitude")):
        assert cli.main(["observables", path, str(field)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(field) in err and tag in err


@pytest.mark.parametrize("command", ["run-nls", "run-wkb", "run-hydro"])
def test_final_field_is_the_last_snapshot(tmp_path, command):
    # the last observed state is the final one, so both files hold it
    path = write_cfg(tmp_path / "run.cfg", tmp_path / "o",
                     "T = 0.01\ndt = 0.005\nstride = 1\nsnapshot_stride = 1\nphase = zero\n"
                     + ROTATING)
    assert cli.main([command, path]) == 0
    last = load_field(tmp_path / "o" / "snap_000002.rsfw")
    final = load_field(tmp_path / "o" / "final.rsfw")
    assert (last.t, last.eps) == (final.t, final.eps)
    np.testing.assert_array_equal(last.values, final.values)


FIELD_TAGS = {"run-nls": ("nls", "nls-final"), "run-wkb": ("wkb-amplitude", "wkb-final"),
              "run-hydro": ("hydro-density", "hydro-final")}


@pytest.mark.parametrize("command", sorted(FIELD_TAGS))
def test_field_runs_tag_every_file_and_read_the_leak_off_the_amplitude(tmp_path, command):
    # every file is of the route's kind, and the leak is the boundary
    # max of |psi|, |a| or sqrt(rho) on the final field
    path = write_cfg(tmp_path / "run.cfg", tmp_path / "o",
                     "T = 0.01\ndt = 0.005\nstride = 1\nsnapshot_stride = 1\nphase = zero\n"
                     + ROTATING)
    assert cli.main([command, path]) == 0
    start, final = FIELD_TAGS[command]
    fields = sorted((tmp_path / "o").glob("*.rsfw"))
    assert len(fields) == 5
    for field in fields:
        snap = load_field(field)
        assert snap.tag == (final if field.name == "final.rsfw" else start)
        assert snap.kind == command.removeprefix("run-")
    values = load_field(tmp_path / "o" / "final.rsfw").values
    amplitude = np.sqrt(values.real) if command == "run-hydro" else np.abs(values)
    leak = json.loads((tmp_path / "o" / "manifest.json").read_text())["boundary_leak"]
    assert 0.0 < leak < 1.0
    assert leak == boundary_max(amplitude)


def test_cli_observables_scores_only_psi_fields(tmp_path, capsys):
    # the tag's kind decides, whatever eps the header gives
    path = write_cfg(tmp_path / "run.cfg", tmp_path / "o")
    grid = GridSpec.square(64, 4.0)
    for tag, code in (("hydro-density", 2), ("wkb-final", 2), ("nls", 0), (None, 0)):
        snap = tmp_path / f"{tag}.rsfw"
        save_field(snap, np.ones(grid.shape), grid, 0.25, 0.0, tag)
        assert cli.main(["observables", path, str(snap)]) == code
        err = capsys.readouterr().err
        if code:
            assert str(snap) in err and repr(tag) in err


def test_cli_observables_rejects_limit_snapshots(tmp_path, capsys):
    # a hydro snapshot stores eps = 0; there is no wavefunction to score
    path = write_cfg(tmp_path / "run.cfg", tmp_path / "o", "T = 0.0\n")
    assert cli.main(["run-hydro", path]) == 0
    capsys.readouterr()
    rc = cli.main(["observables", path, str(tmp_path / "o" / "initial.rsfw")])
    assert rc == 2
    assert "eps" in capsys.readouterr().err
    # a header with eps = nan is malformed, and the message names the file
    bad = tmp_path / "nan.rsfw"
    bad.write_bytes(MAGIC + b"2 64 64 4.0 4.0 nan 0.0 0.0\n" + bytes(16 * 64 * 64))
    assert cli.main(["observables", path, str(bad)]) == 2
    assert str(bad) in capsys.readouterr().err


def test_cli_observables_rejects_a_snapshot_of_another_dimension(tmp_path, capsys):
    # a 3d field under a 2d config, and a 2d field under a 3d config
    path2 = write_cfg(tmp_path / "run.cfg", tmp_path / "o")
    path3 = tmp_path / "run3d.cfg"
    path3.write_text("[sim]\nomega = 1 1 1\n[grid]\npoints = 8\nhalf_extent = 4\n",
                     encoding="utf-8")
    for cfg, dim in ((path2, 3), (str(path3), 2)):
        grid = GridSpec.square(8, 4.0, dim=dim)
        snap = tmp_path / f"field{dim}d.rsfw"
        save_field(snap, np.ones(grid.shape, complex), grid, 0.25, 0.0)
        assert cli.main(["observables", cfg, str(snap)]) == 2
        err = capsys.readouterr().err
        assert str(snap) in err and "[sim].omega" in err


def test_cli_rejects_unknown_subcommands(tmp_path, capsys):
    assert cli.main(["frobnicate"]) == 2
    capsys.readouterr()


def test_config_roundtrip_through_the_cli_surface(tmp_path):
    cfg = small_cfg(tmp_path / "o", T=0.0, solver="wkb", sponge=0.0)
    path = tmp_path / "round.cfg"
    path.write_text(serialize(cfg), encoding="utf-8")
    assert cli.main(["run-wkb", str(path)]) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["config"] == serialize(cfg)
