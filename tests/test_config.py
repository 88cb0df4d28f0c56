"""Sectioned run configuration: parsing, validation, round trips."""

import numpy as np
import pytest

from rotorwkb import (
    ConfigError,
    GridSpec,
    RunConfig,
    apply_overrides,
    load_config,
    parse_config,
    save_field,
    serialize,
)


def test_empty_text_yields_defaults():
    cfg = parse_config("")
    assert cfg.sim.eps == 0.25
    assert cfg.sim.Omega == 0.0
    assert cfg.sim.omega == (1.0, 1.0)
    assert cfg.sim.nonlinearity.name == "cubic"
    assert cfg.grid.points == (256, 256)
    assert cfg.grid.half_extent == (8.0, 8.0)
    assert cfg.solver == "nls"
    assert cfg.T == 1.0 and cfg.dt is None and cfg.stride == 10
    assert cfg.initial.kind == "gaussian" and cfg.phase.kind == "zero"
    assert cfg.sponge == 20.0 and cfg.snapshot_stride == 0
    assert cfg == RunConfig()


def test_parse_full_text_with_comments():
    text = """
    # run description goes here
    [sim]
    eps = 0.125        # semiclassical scale
    Omega = 1.0
    omega = 2 1
    nonlinearity = none

    [grid]
    points = 64 128
    half_extent = 4 8

    [run]
    solver = wkb
    T = 0.5
    dt = 0.002
    stride = 5
    outdir = scratch/run1
    center = 1.0 -0.5
    phase = quadratic
    sigma0 = 0.2 0.1 0.1 -0.1
    b0 = 0.1 -0.05
    c0 = 0.3
    """
    cfg = parse_config(text)
    assert cfg.sim.eps == 0.125
    assert cfg.sim.omega == (2.0, 1.0)
    assert cfg.sim.nonlinearity.name == "none"
    assert cfg.grid.points == (64, 128)
    assert cfg.grid.half_extent == (4.0, 8.0)
    assert cfg.solver == "wkb" and cfg.dt == 0.002
    assert cfg.initial.center == (1.0, -0.5)
    assert cfg.phase.kind == "quadratic"
    assert cfg.phase.sigma0 == (0.2, 0.1, 0.1, -0.1)
    assert cfg.phase.b0 == (0.1, -0.05)
    assert cfg.phase.c0 == 0.3


def test_serialize_round_trip_is_exact():
    cfg = parse_config("""
    [sim]
    eps = 0.12345678901234567
    Omega = 0.3333333333333333
    omega = 1.1 0.9
    [run]
    dt = auto
    T = 2.5
    sponge = 17.25
    """)
    text = serialize(cfg)
    again = parse_config(text)
    assert again == cfg
    assert serialize(again) == text  # canonical form is a fixed point


def test_single_point_count_broadcasts_to_dim():
    cfg = parse_config("[sim]\nomega = 1 1 1\n[grid]\npoints = 16\n"
                       "half_extent = 4\n")
    assert cfg.grid.points == (16, 16, 16)
    assert cfg.grid.half_extent == (4.0, 4.0, 4.0)
    assert cfg.sim.dim == 3


@pytest.mark.parametrize("text,fragment", [
    ("[sim]\neps = -3.0\n", "[sim].eps: must be positive, got -3.0"),
    ("[sim]\neps = 0\n", "[sim].eps: must be positive"),
    ("[sim]\nepz = 1\n", "[sim].epz: unknown key"),
    ("[sim]\neps = 0.5\neps = 0.5\n", "[sim].eps: duplicate key"),
    ("[weird]\n", "unknown section [weird]"),
    ("eps = 1\n", "key outside any section"),
    ("[sim]\neps\n", "expected key = value"),
    ("[sim]\neps = birds\n", "expected numbers"),
    ("[sim]\nomega = 1 -2\n", "[sim]:"),
    ("[sim]\nnonlinearity = quintic\n", "[sim].nonlinearity"),
    ("[grid]\npoints = 100\n", "[grid]:"),
    ("[sim]\nomega = 1 1 1\n[grid]\npoints = 32 32\n",
     "grid is 2d but [sim].omega gives 3d"),
    ("[run]\nsolver = petsc\n", "[run].solver"),
    ("[run]\ndt = -0.1\n", "[run].dt: must be positive"),
    ("[run]\nT = -1\n", "[run].T: must be nonnegative"),
    ("[run]\nstride = 0\n", "[run].stride"),
    ("[run]\ncenter = 1 2 3\n", "[run].center: expected 2 components"),
    ("[run]\nsigma0 = 0.2 0.3 0.1 0\n", "[run].sigma0: must be symmetric"),
    ("[run]\nsigma0 = 1 2 3\n", "[run].sigma0: expected 4"),
    ("[run]\ninitial = blob\n", "[run].initial"),
    ("[run]\ninitial = file:\n", "file kind needs file:PATH"),
    ("[run]\ninitial = file:/no/such/field.rsfw\n", "no such file"),
    ("[run]\ninitial = vortex\nwinding = 0\n", "[run].winding"),
    ("[run]\nsolver = wkb\ninitial = vortex\n", "winding phase"),
    ("[run]\nsolver = rays\ninitial = vortex\n", "winding phase"),
    ("[run]\nT = nan\n", "[run].T: must be finite"),
    ("[run]\nstride = 1e400\n", "[run].stride: must be finite"),
    ("[sim]\neps = inf\n", "[sim].eps: must be finite"),
    ("[run]\nsigma0 = nan 0 0 0\n", "[run].sigma0: must be finite"),
])
def test_rejects_bad_text(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert fragment in str(err.value)


def test_phase_file_forbidden_for_phase_transport_solvers(tmp_path):
    grid = GridSpec.square(16, 4.0)
    p = tmp_path / "phase.rsfw"
    save_field(p, np.zeros(grid.shape), grid, eps=0.0, t=0.0, tag="phase")
    text = f"[grid]\npoints = 16\nhalf_extent = 4\n[run]\nphase = file:{p}\n"
    assert parse_config(text + "solver = nls\n").phase.path == str(p)
    for solver in ("wkb", "rays"):
        with pytest.raises(ConfigError, match="quadratic phases only"):
            parse_config(text + f"solver = {solver}\n")


def test_overrides_merge_and_validate():
    cfg = parse_config("[sim]\neps = 0.25\n")
    out = apply_overrides(cfg, {"sim.eps": "0.5", "run.solver": "hydro"})
    assert out.sim.eps == 0.5
    assert out.solver == "hydro"
    assert out.grid == cfg.grid
    with pytest.raises(ConfigError, match="not section.key"):
        apply_overrides(cfg, {"eps": "1"})
    with pytest.raises(ConfigError, match="unknown section"):
        apply_overrides(cfg, {"simulation.eps": "1"})
    with pytest.raises(ConfigError, match="unknown key"):
        apply_overrides(cfg, {"sim.epsilon": "1"})
    with pytest.raises(ConfigError, match="must be positive"):
        apply_overrides(cfg, {"sim.eps": "-1"})


def test_load_config(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("[sim]\neps = 0.0625\n", encoding="utf-8")
    assert load_config(str(p)).sim.eps == 0.0625
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(str(tmp_path / "missing.cfg"))
