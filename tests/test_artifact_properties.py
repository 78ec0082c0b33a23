"""Property tests of the binary artifacts: reduced models (HRROM001,
format version 2), bases (HRSNAP01) and trajectories (HRTRAJ01).

Models are built from random orthonormal bases, so every variant, rank
and interpolation size is exercised; bases and trajectories hold
arbitrary float64 values, NaN and infinities included.
Corrupt files are made by truncating the bytes of a valid file, flipping
one of its bits or overwriting a header field.  Example counts are
bounded so the file runs in seconds.
"""

import struct
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import PROPERTY, random_orthonormal
from hamrom._binio import FileFormatError
from hamrom.cli import main
from hamrom.deim import build_deim
from hamrom.integrator import Trajectory, load_trajectory, save_trajectory
from hamrom.pod import PodBasis, load_basis, save_basis
from hamrom.rom import VARIANT_TAGS, RomVariant, build_rom, load_rom, save_rom
from hamrom.wave import WaveConfig, assemble_wave_fom

N = 16
# header fields after the 8-byte magic: version, variant code, shift flag,
# n, r_u, r_v, s
HEADER_FIELDS = ((8, "<I"), (12, "<I"), (16, "<B"), (17, "<Q"), (25, "<Q"), (33, "<Q"), (41, "<Q"))
# HRSNAP01: version, kind code, n, r, shift flag
BASIS_FIELDS = ((8, "<I"), (12, "<I"), (16, "<Q"), (24, "<Q"), (32, "<B"))
# HRTRAJ01: version, dim, count, and the bits of dt and t0
TRAJECTORY_FIELDS = ((8, "<I"), (12, "<Q"), (20, "<Q"), (28, "<Q"), (36, "<Q"))


@lru_cache(maxsize=None)
def system():
    return assemble_wave_fom(WaveConfig(n=N))


def random_model(tag, r_u, r_v, s, seed):
    rng = np.random.default_rng(seed)
    variant = RomVariant.from_tag(tag)

    def basis(r):
        ref = 0.3 * rng.standard_normal(N) if variant.shifted else None
        return PodBasis(random_orthonormal(rng, N, r), np.ones(r), shift_ref=ref)

    deim = None
    if variant.kind == "sp-deim":
        psi = basis(s)
        deim = build_deim(psi, rng.uniform(0.5, 1.5, N))
    return build_rom(variant, basis(r_u), basis(r_v), system(), deim=deim)


@lru_cache(maxsize=None)
def artifact_bytes(tag):
    """Bytes of one saved artifact per variant, written to a scratch file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rom.bin"
        save_rom(random_model(tag, 3, 2, 4, seed=11), path)
        return path.read_bytes()


def corrupt(data, how, where, value, fields=HEADER_FIELDS):
    data = bytearray(data)
    if how == "truncate":
        return bytes(data[: where % len(data)])
    if how == "flip":
        bit = where % (8 * len(data))
        data[bit // 8] ^= 1 << (bit % 8)
        return bytes(data)
    offset, fmt = fields[where % len(fields)]
    struct.pack_into(fmt, data, offset, value % (1 << (8 * struct.calcsize(fmt))))
    return bytes(data)


DAMAGE = dict(
    how=st.sampled_from(("truncate", "flip", "header")),
    where=st.integers(min_value=0, max_value=1 << 24),
    value=st.one_of(st.integers(0, 64), st.integers(0, (1 << 64) - 1)),
)
CORRUPTIONS = dict(tag=st.sampled_from(VARIANT_TAGS), **DAMAGE)


@PROPERTY
@given(
    tag=st.sampled_from(VARIANT_TAGS),
    r_u=st.integers(1, 5),
    r_v=st.integers(1, 5),
    s=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_roundtrip_is_bit_exact(tmp_path, tag, r_u, r_v, s, seed):
    model = random_model(tag, r_u, r_v, s, seed)
    path = tmp_path / "rom.bin"
    save_rom(model, path)
    back = load_rom(path, system())
    assert back.tag == model.tag and back.s == model.s
    for name in ("phi_u", "phi_v", "u_ref", "v_ref", "cuv", "a_red", "lin_u", "lin_v",
                 "c_u", "_L", "_c", "_m_b", "_energy_shift"):
        got, want = np.asarray(getattr(back, name)), np.asarray(getattr(model, name))
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    if model.s:
        assert back.deim_indices.tobytes() == model.deim_indices.tobytes()
        assert back.deim_weights.tobytes() == model.deim_weights.tobytes()
    again = tmp_path / "again.bin"
    save_rom(back, again)
    assert again.read_bytes() == path.read_bytes()


@PROPERTY
@given(**CORRUPTIONS)
def test_corrupt_artifact_raises_only_file_format_error(tmp_path, tag, how, where, value):
    path = tmp_path / "rom.bin"
    path.write_bytes(corrupt(artifact_bytes(tag), how, where, value))
    try:
        with np.errstate(all="ignore"):
            load_rom(path, system())
    except FileFormatError:
        pass


@pytest.fixture(scope="module")
def online_run(tmp_path_factory):
    """A trajectory at n=16 and one valid artifact per variant."""
    out = tmp_path_factory.mktemp("props")
    tail = ["--n", str(N), "--t-final", "0.2", "--stride", "5", "--r", "2",
            "--out", str(out)]
    assert main(["fom", *tail]) == 0
    assert main(["offline", *tail]) == 0
    return out, tail


@settings(PROPERTY, max_examples=60)
@given(**CORRUPTIONS)
def test_online_on_corrupt_artifact_exits_with_a_documented_code(
    online_run, tag, how, where, value
):
    out, tail = online_run
    data = (out / f"rom_{tag}_r2.bin").read_bytes()
    bad = out / "corrupt.bin"
    bad.write_bytes(corrupt(data, how, where, value))
    with np.errstate(all="ignore"):
        assert main(["online", "--rom", str(bad), *tail]) in (0, 2, 3, 4)


# ---------------------------------------------------------------------------
# Bases (HRSNAP01) and trajectories (HRTRAJ01).


def float_matrix(rows, cols):
    return arrays(np.float64, st.tuples(rows, cols), elements=st.floats(width=64))


def same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@PROPERTY
@given(
    columns=float_matrix(st.integers(1, 6), st.integers(1, 5)),
    shifted=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_snapshot_and_basis_roundtrip_is_bit_exact(tmp_path, columns, shifted, seed):
    rng = np.random.default_rng(seed)
    ref = rng.standard_normal(columns.shape[0]) if shifted else None
    basis = PodBasis(columns, rng.standard_normal(int(rng.integers(0, 7))), shift_ref=ref)
    path = tmp_path / "basis.bin"
    save_basis(basis, path)
    back = load_basis(path)
    assert same_bits(back.phi, basis.phi)
    assert same_bits(back.singular_values, basis.singular_values)
    assert back.shift_ref is None if ref is None else same_bits(back.shift_ref, ref)


@PROPERTY
@given(
    states=float_matrix(st.integers(1, 6), st.integers(1, 5)),
    dt=st.floats(1e-6, 1e3),
    t0=st.floats(-1e3, 1e3),
)
def test_trajectory_roundtrip_is_bit_exact(tmp_path, states, dt, t0):
    traj = Trajectory(states, t0 + np.arange(states.shape[0]) * dt)
    path = tmp_path / "traj.bin"
    save_trajectory(traj, path, dt=dt)
    back = load_trajectory(path)
    assert same_bits(back.states, traj.states)
    assert same_bits(back.times, traj.times)


@lru_cache(maxsize=None)
def file_bytes(fmt):
    """Bytes of one valid file of each format, with the header fields a
    corruption may overwrite (a basis adds its spectrum count)."""
    rng = np.random.default_rng(5)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file.bin"
        if fmt == "basis":
            save_basis(PodBasis(random_orthonormal(rng, 5, 2), np.ones(3)), path)
            fields = BASIS_FIELDS + ((33 + 8 * (2 + 5 * 2), "<Q"),)
        else:
            states = rng.standard_normal((4, 3))
            save_trajectory(Trajectory(states, 0.5 * np.arange(4)), path, dt=0.5)
            fields = TRAJECTORY_FIELDS
        return path.read_bytes(), fields


LOADERS = {"basis": load_basis, "trajectory": load_trajectory}


@PROPERTY
@given(fmt=st.sampled_from(tuple(LOADERS)), **DAMAGE)
def test_corrupt_snapshot_basis_or_trajectory_raises_only_file_format_error(
    tmp_path, fmt, how, where, value
):
    data, fields = file_bytes(fmt)
    path = tmp_path / "file.bin"
    path.write_bytes(corrupt(data, how, where, value, fields))
    try:
        with np.errstate(all="ignore"):
            LOADERS[fmt](path)
    except FileFormatError:
        pass
