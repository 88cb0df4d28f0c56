"""Binary field snapshot format: bit-exact round trips and validation."""

import numpy as np
import pytest

from rotorwkb import GridSpec, load_field, save_field
from rotorwkb.snapshots import MAGIC, MAGIC_V1


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    grid = GridSpec((4.0, 6.0), (16, 32))
    values = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    # awkward but representable floats must survive exactly
    values[0, 0] = 1e-308 + 1j * np.pi
    values[1, 2] = -0.1 + 0.3j
    path = tmp_path / "field.rsfw"
    save_field(path, values, grid, eps=0.1 + 1e-17, t=2.0 / 3.0, tag="probe",
               angle=0.7 / 3.0)
    snap = load_field(path)
    assert snap.values.dtype == np.complex128
    np.testing.assert_array_equal(snap.values, values)
    assert snap.grid == grid
    assert snap.eps == 0.1 + 1e-17
    assert snap.t == 2.0 / 3.0 and snap.angle == 0.7 / 3.0
    assert snap.tag == "probe" and snap.kind == "probe"
    assert path.read_bytes().startswith(MAGIC)


def test_round_trip_3d(tmp_path):
    rng = np.random.default_rng(12)
    grid = GridSpec.square(8, 2.0, dim=3)
    values = rng.standard_normal(grid.shape) * 1j
    path = tmp_path / "cube.rsfw"
    save_field(path, values, grid, eps=0.5, t=0.0)
    snap = load_field(path)
    np.testing.assert_array_equal(snap.values, values)
    assert snap.grid.dim == 3
    assert snap.tag is None and snap.kind is None and snap.angle == 0.0


@pytest.mark.parametrize("tag", [None, "nls-final"])
def test_an_rsfw1_file_reads_at_angle_zero(tmp_path, tag):
    # the header of the first format has no angle token
    grid = GridSpec.square(8, 2.0)
    values = np.arange(64).reshape(grid.shape) * (1 - 0.5j)
    header = "2 8 8 2.0 2.0 0.25 0.5" + (f" {tag}" if tag else "") + "\n"
    path = tmp_path / "v1.rsfw"
    path.write_bytes(MAGIC_V1 + header.encode("ascii") + values.astype("<c16").tobytes())
    snap = load_field(path)
    np.testing.assert_array_equal(snap.values, values)
    assert (snap.grid, snap.eps, snap.t, snap.tag, snap.angle) == (grid, 0.25, 0.5, tag, 0.0)


def test_truncated_payload_rejected(tmp_path):
    grid = GridSpec.square(16, 4.0)
    path = tmp_path / "cut.rsfw"
    save_field(path, np.ones(grid.shape, dtype=complex), grid, eps=0.5, t=0.0)
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(ValueError, match="payload"):
        load_field(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.rsfw"
    path.write_bytes(b"NOPE!\n" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        load_field(path)
    assert MAGIC.endswith(b"\n")


def test_mangled_header_rejected(tmp_path):
    grid = GridSpec.square(16, 4.0)
    path = tmp_path / "hdr.rsfw"
    save_field(path, np.ones(grid.shape, dtype=complex), grid, eps=0.5, t=0.0)
    blob = bytearray(path.read_bytes())
    # corrupt a byte inside the header region after the magic
    blob[len(MAGIC) + 2] = 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError):
        load_field(path)


@pytest.mark.parametrize("header, why", [
    ("2 8 8 4.0 4.0 nan 0.0", "eps = nan"),
    ("2 8 8 4.0 4.0 -0.25 0.0", "eps = -0.25"),
    ("2 8 8 4.0 4.0 0.5 inf", "t = inf"),
    ("2 8 8 inf 4.0 0.5 0.0", "half_extent must be positive and finite"),
])
def test_nonfinite_or_negative_header_values_rejected(tmp_path, header, why):
    # every header number is checked, and the error names the file; the
    # angle token follows the time
    path = tmp_path / "bad.rsfw"
    path.write_bytes(MAGIC + header.encode("ascii") + b" 0.0\n" + b"\x00" * (16 * 64))
    with pytest.raises(ValueError, match=why) as info:
        load_field(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("header, why", [
    ("2 8 8 4.0 4.0 0.5 0.0 nan", "angle = nan"),
    ("2 8 8 4.0 4.0 0.5 0.0 inf", "angle = inf"),
    ("2 8 8 4.0 4.0 0.5 0.0", "malformed RSFW header"),
])
def test_an_rsfw2_header_needs_a_finite_angle(tmp_path, header, why):
    path = tmp_path / "bad.rsfw"
    path.write_bytes(MAGIC + header.encode("ascii") + b"\n" + b"\x00" * (16 * 64))
    with pytest.raises(ValueError, match=why):
        load_field(path)
