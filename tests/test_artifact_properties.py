"""Property tests of the reduced-model artifact (format version 2).

Models are built from random orthonormal bases, so every variant, rank
and interpolation size is exercised; corrupt files are made by truncating
the bytes of a valid artifact, flipping one of its bits or overwriting a
header field.  Example counts are bounded so the file runs in seconds.
"""

import struct
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import random_orthonormal
from hamrom._binio import FileFormatError
from hamrom.cli import main
from hamrom.deim import build_deim
from hamrom.pod import PodBasis
from hamrom.rom import VARIANT_TAGS, RomVariant, build_rom, load_rom, save_rom
from hamrom.wave import WaveConfig, assemble_wave_fom

N = 16
PROPERTY = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
# header fields after the 8-byte magic: version, variant code, shift flag,
# n, r_u, r_v, s
HEADER_FIELDS = ((8, "<I"), (12, "<I"), (16, "<B"), (17, "<Q"), (25, "<Q"), (33, "<Q"), (41, "<Q"))


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


def corrupt(data, how, where, value):
    data = bytearray(data)
    if how == "truncate":
        return bytes(data[: where % len(data)])
    if how == "flip":
        bit = where % (8 * len(data))
        data[bit // 8] ^= 1 << (bit % 8)
        return bytes(data)
    offset, fmt = HEADER_FIELDS[where % len(HEADER_FIELDS)]
    struct.pack_into(fmt, data, offset, value % (1 << (8 * struct.calcsize(fmt))))
    return bytes(data)


CORRUPTIONS = dict(
    tag=st.sampled_from(VARIANT_TAGS),
    how=st.sampled_from(("truncate", "flip", "header")),
    where=st.integers(min_value=0, max_value=1 << 24),
    value=st.one_of(st.integers(0, 64), st.integers(0, (1 << 64) - 1)),
)


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
