"""Runner, sweep, and CLI tests: artifact layout, determinism,
convergence bookkeeping, and exit-code contracts."""

import csv
import hashlib
import json
import os
import pickle
from dataclasses import replace

import numpy as np
import pytest

from rotorwkb import cli
from rotorwkb.config import ConfigError, RunConfig, serialize
from rotorwkb.core import GridSpec, Nonlinearity, NumericalAbort, SimParams
from rotorwkb.runner import (SweepError, _worker_count, build_ray_bundle,
                             build_wavefield, build_wkb_state, compare_fields,
                             epsilon_sweep, run)
from rotorwkb.snapshots import MAGIC, save_field


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


def test_sweep_output_does_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    def sweep(workers):
        monkeypatch.setenv("ROTORWKB_THREADS", str(workers))
        out = tmp_path / f"w{workers}"
        epsilon_sweep(small_cfg(out, grid=GridSpec.square(32, 4.0), T=0.02),
                      (0.5, 0.25, 0.125), mode="both")
        summary = json.loads((out / "sweep.json").read_text())
        del summary["wall_times_s"]
        hashes = {m.parent.name: json.loads(m.read_text())["artifacts"]
                  for m in out.glob("*/manifest.json")}
        return summary, hashes

    one, two = sweep(1), sweep(2)
    assert one == two
    assert len(one[1]) == 6


def test_worker_count_is_capped_by_the_usable_cpus(monkeypatch):
    monkeypatch.delenv("ROTORWKB_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert _worker_count(7) == 3
    assert _worker_count(2) == 2
    monkeypatch.setenv("ROTORWKB_THREADS", "5")
    assert _worker_count(7) == 5
    monkeypatch.delenv("ROTORWKB_THREADS")
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _worker_count(7) == 7


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


def test_cli_observables_matches_the_run_table(tmp_path, capsys):
    path = write_cfg(tmp_path / "run.cfg", tmp_path / "o", "T = 0.0\n")
    assert cli.main(["run-nls", path]) == 0
    capsys.readouterr()
    rc = cli.main(["observables", path, str(tmp_path / "o" / "initial.rsfw")])
    assert rc == 0
    assert capsys.readouterr().out == \
        (tmp_path / "o" / "observables.csv").read_text()


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
    bad.write_bytes(MAGIC + b"2 64 64 4.0 4.0 nan 0.0\n" + bytes(16 * 64 * 64))
    assert cli.main(["observables", path, str(bad)]) == 2
    assert str(bad) in capsys.readouterr().err


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
