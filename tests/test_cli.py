import ast
import contextlib
import dataclasses
import errno
import importlib.util
import itertools
import json
import os
import re
import stat
import struct
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PROPERTY
from hamrom import _native, cli, rom, wave
from hamrom.cli import (
    _CONFIG_PARSERS,
    ConfigError,
    PipelineConfig,
    build_config,
    build_parser,
    cmd_fom,
    cmd_offline,
    cmd_online,
    cmd_reproduce,
    main,
    parse_config_file,
)
from hamrom.integrator import (
    IntegratorConfig,
    Trajectory,
    TrajectoryFile,
    integrate_steps,
    load_trajectory,
    open_trajectory,
    save_trajectory,
)
from hamrom.metrics import (
    EvalCounter,
    e_inf,
    energy_series_of_states,
    hamiltonian_series,
    read_series_csv,
    series_rows,
    write_series_csv,
)
from hamrom.pod import PodBasis
from hamrom.rom import VARIANT_TAGS, RomVariant, build_rom, load_rom, save_rom
from hamrom.wave import WaveConfig, assemble_wave_fom, initial_state

SMALL = dict(n=32, t_final=1.0, stride=10, r_list=(3,), variants=("sp-pod-2", "sp-deim-2"))


@pytest.fixture(autouse=True)
def no_new_thread():
    """Fail a test that leaves a thread running: fom and online join their
    workers before they return or fail.  A test that asks for the fixture
    gets the check itself, to make right after a command returns."""
    before = set(threading.enumerate())

    def check():
        left = set(threading.enumerate()) - before
        assert not left, f"threads left running: {sorted(t.name for t in left)}"

    yield check
    check()


def small_config(out, **overrides):
    params = {**SMALL, **overrides, "out": str(out)}
    return PipelineConfig(**params)


def scrub_timing(payload):
    def walk(node):
        if isinstance(node, dict):
            return {k: walk(v) for k, v in node.items() if k != "online_seconds"}
        if isinstance(node, list):
            return [walk(v) for v in node]
        return node

    return walk(payload)


def test_fom_zero_horizon_single_state(tmp_path):
    summary = cmd_fom(small_config(tmp_path, t_final=0.0))
    assert summary["steps"] == 0
    traj = load_trajectory(tmp_path / "fom_trajectory.bin")
    assert len(traj) == 1


def test_fom_smoke_run_energy_flat(tmp_path):
    summary = cmd_fom(small_config(tmp_path))
    assert summary["steps"] == 100
    assert (tmp_path / "fom_energy.csv").read_text().startswith("t,value")
    # the full-order run takes AVF steps, which conserve the energy to the
    # fixed-point tolerance (~1e-15 here); the implicit midpoint rule's
    # O(dt^2) oscillation reads ~2e-10 over this horizon and ~2e-7 over
    # longer ones (see the acceptance notes)
    short = cmd_fom(small_config(tmp_path / "short", t_final=0.1))
    assert short["h_dx_drift_max"] <= 1e-9


def test_offline_products(tmp_path):
    cfg = small_config(tmp_path)
    cmd_fom(cfg)
    before = set(tmp_path.iterdir())
    cmd_offline(cfg)
    # the artifacts that online reads, the interpolation points and the log
    assert {p.name for p in set(tmp_path.iterdir()) - before} == {
        "rom_sp-pod-2_r3.bin", "rom_sp-deim-2_r3.bin", "deim_indices_shifted_r3.json",
        "offline_log.json",
    }
    fom = assemble_wave_fom(cfg.wave_config())
    model = load_rom(tmp_path / "rom_sp-deim-2_r3.bin", fom)
    assert model.r_u == 3
    assert np.max(np.abs(model.phi_u.T @ model.phi_u - np.eye(3))) <= 1e-10
    traj = load_trajectory(tmp_path / "fom_trajectory.bin")
    # shifted artifact records the initial state as its reference
    assert np.all(model.u_ref == traj.states[0, : cfg.n])
    assert model.s == 2 * 3
    log = json.loads((tmp_path / "offline_log.json").read_text())
    assert log["snapshots"]["count"] == 11


def test_artifact_file_roundtrip_bitwise(tmp_path):
    cfg = small_config(tmp_path)
    cmd_fom(cfg)
    cmd_offline(cfg)
    fom = assemble_wave_fom(cfg.wave_config())
    path = tmp_path / "rom_sp-deim-2_r3.bin"
    model = load_rom(path, fom)
    again = tmp_path / "copy.bin"
    save_rom(model, again)
    assert again.read_bytes() == path.read_bytes()


def test_online_report_fields(tmp_path):
    cfg = small_config(tmp_path)
    cmd_fom(cfg)
    cmd_offline(cfg)
    report = cmd_online(cfg, tmp_path / "rom_sp-pod-2_r3.bin")
    assert report.variant == "sp-pod-2" and report.r == 3 and report.s == 0
    assert report.steps == 100
    assert report.e_inf > 0
    assert report.h_offset_max >= 0 and report.h_drift_max >= 0
    assert report.picard_avg_iters > 1
    assert (tmp_path / "report_sp-pod-2_r3.json").exists()
    assert (tmp_path / "energy_sp-pod-2_r3.csv").exists()


def test_online_identity_artifact_reproduces_fom(tmp_path):
    cfg = small_config(tmp_path)
    cmd_fom(cfg)
    fom = assemble_wave_fom(cfg.wave_config())
    eye = PodBasis(np.eye(cfg.n), np.ones(cfg.n))
    model = build_rom(RomVariant.from_tag("sp-pod-1"), eye, eye, fom)
    save_rom(model, tmp_path / "identity.bin")
    report = cmd_online(cfg, tmp_path / "identity.bin")
    assert report.e_inf <= 1e-8


def test_reproduce_writes_consolidated_outputs(tmp_path):
    cfg = small_config(tmp_path)
    payload = cmd_reproduce(cfg)
    assert len(payload["runs"]) == len(cfg.r_list) * len(cfg.variants)
    table = (tmp_path / "table.txt").read_text()
    assert "sp-deim-2" in table and "E_inf" in table
    stored = json.loads((tmp_path / "reproduce.json").read_text())
    assert stored["config"]["n"] == cfg.n
    assert "out" not in stored["config"]


def test_reproduce_deterministic_modulo_timing(tmp_path):
    cfg_a = small_config(tmp_path / "a", n=48, t_final=2.0)
    cfg_b = small_config(tmp_path / "b", n=48, t_final=2.0)
    pay_a = cmd_reproduce(cfg_a)
    pay_b = cmd_reproduce(cfg_b)
    canon_a = json.dumps(scrub_timing(pay_a), sort_keys=True)
    canon_b = json.dumps(scrub_timing(pay_b), sort_keys=True)
    assert canon_a == canon_b


def test_single_variant_selection(tmp_path):
    cfg = small_config(tmp_path, variants=("sp-deim-2",))
    payload = cmd_reproduce(cfg)
    assert [run["variant"] for run in payload["runs"]] == ["sp-deim-2"]


def test_config_file_parsing_and_flag_precedence(tmp_path):
    conf = tmp_path / "bench.conf"
    conf.write_text("# comment\nn = 64\nr = 3,5\nvariants = sp-pod-1\n")
    overrides = parse_config_file(conf)
    assert overrides == {"n": 64, "r_list": (3, 5), "variants": ("sp-pod-1",)}
    args = build_parser().parse_args(
        ["fom", "--config", str(conf), "--n", "16", "--out", str(tmp_path)]
    )
    cfg = build_config(args)
    assert cfg.n == 16  # flag wins over file
    assert cfg.r_list == (3, 5)


def test_config_errors(tmp_path):
    bad = tmp_path / "bad.conf"
    bad.write_text("mesh = 10\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_file(bad)
    bad.write_text("n ten\n")
    with pytest.raises(ConfigError, match="key=value"):
        parse_config_file(bad)
    bad.write_text("r = 0,5\n")
    with pytest.raises(ConfigError):
        parse_config_file(bad)
    bad.write_text("n = 64\nr = 3,5,3\n")
    with pytest.raises(ConfigError, match=r"bad.conf:2: bad value for r: repeated"):
        parse_config_file(bad)
    bad.write_text("variants = sp-pod-1, g-rom, sp-pod-1\n")
    with pytest.raises(ConfigError, match=r"bad.conf:1: bad value for variants: repeated"):
        parse_config_file(bad)
    bad.write_bytes(b"n = 64\nout = caf\xe9\n")  # Latin-1, not UTF-8
    with pytest.raises(ConfigError, match="bad.conf.*UTF-8"):
        parse_config_file(bad)


def test_main_exit_codes(tmp_path):
    out = tmp_path / "run"
    # config error: unknown variant tag
    assert main(["fom", "--variants", "nope", "--out", str(out)]) == 2
    # config error: fractional step count
    assert main(["fom", "--dt", "0.3", "--t-final", "1.0", "--out", str(out)]) == 2
    # config error: a repeated rank or variant would run one model twice
    tiny = ["--n", "16", "--t-final", "0.1", "--out", str(out)]
    assert main(["fom", "--r", "3,3", *tiny]) == 2
    assert main(["fom", "--variants", "sp-pod-1,sp-pod-1", *tiny]) == 2
    assert not out.exists()
    # i/o error: missing trajectory
    assert (
        main(["offline", "--n", "16", "--out", str(tmp_path / "empty")]) == 4
    )
    # numerical error: step size far beyond the fixed-point contraction limit
    assert (
        main(
            ["fom", "--n", "16", "--dt", "5", "--t-final", "10", "--out", str(out)]
        )
        == 3
    )


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--c-speed", "nan"),
        ("--c-speed", "inf"),
        ("--length", "inf"),
        ("--length", "-1"),
        ("--dt", "nan"),
        ("--dt", "inf"),
        ("--picard-tol", "nan"),
        ("--picard-tol", "0"),
        ("--t-final", "inf"),
        ("--t-final", "nan"),
        ("--t-final", "-1"),
        # the stencil weight c^2/dx^2 overflows
        ("--length", "1e-320"),
        ("--c-speed", "1e200"),
    ],
)
def test_non_finite_or_out_of_range_float_is_a_config_error(tmp_path, flag, value):
    out = tmp_path / "run"
    assert main(["fom", "--n", "16", "--t-final", "0.1", flag, value, "--out", str(out)]) == 2
    assert not (out / "fom_summary.json").exists()


def test_bad_flag_value_is_a_config_error_naming_the_flag(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["fom", "--n", "1.5", "--out", str(out)]) == 2
    assert "--n: bad value for n" in capsys.readouterr().err
    assert main(["fom", "--picard-max-iter", "many", "--out", str(out)]) == 2
    assert "--picard-max-iter: bad value for picard_max_iter" in capsys.readouterr().err
    assert not out.exists()


def test_oversized_trajectory_is_a_config_error(tmp_path, capsys):
    # 5e301 steps: refused with the byte count, before any directory exists;
    # 50 / 1e-320 overflows to infinitely many steps
    out = tmp_path / "huge"
    assert main(["fom", "--dt", "1e-300", "--out", str(out)]) == 2
    assert "needs 4.000e+305 bytes" in capsys.readouterr().err
    assert main(["fom", "--dt", "1e-320", "--out", str(out)]) == 2
    assert "too many steps" in capsys.readouterr().err
    assert not out.exists()
    # 2n = 4e9 values over 5,001 states are 1.6e14 bytes; only the
    # configuration is built, never the run
    args = build_parser().parse_args(["fom", "--n", "2000000000"])
    with pytest.raises(ConfigError, match=r"needs 1\.600e\+14 bytes"):
        build_config(args)


def test_the_trajectory_is_bounded_by_the_free_space_of_its_file_system(tmp_path, monkeypatch,
                                                                      capsys):
    # n = 500 over 2e6 steps: a 1.6e10-byte trajectory, only the
    # configuration is built; the file system is that of the nearest
    # existing directory of --out, and `offline` and `online` write no
    # trajectory
    size = 8 * 2 * 500 * (2_000_000 + 1)
    out = tmp_path / "new" / "run"
    flags = ["--n", "500", "--t-final", "20000", "--out", str(out)]
    asked = []

    def disk(free):
        def statvfs(path):
            asked.append(path)
            return SimpleNamespace(f_bavail=free, f_frsize=1)
        return statvfs

    monkeypatch.setattr(os, "statvfs", disk(size))
    for command in ("fom", "reproduce", "offline", "online --rom x"):
        args = build_parser().parse_args([*command.split(), *flags])
        assert build_config(args).t_final == 20000.0
    assert asked == [str(tmp_path)] * 2
    monkeypatch.setattr(os, "statvfs", disk(size - 1))
    for command in ("fom", "reproduce"):
        assert main([command, *flags]) == 2
        assert "needs 1.600e+10 bytes" in capsys.readouterr().err
    assert build_config(build_parser().parse_args(["offline", *flags])).t_final == 20000.0
    # the 24 bytes per state that `fom` keeps are bounded by physical memory
    monkeypatch.setattr(os, "statvfs", disk(size))
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 11718}.get)
    assert main(["fom", *flags]) == 2
    assert "keeps 4.800e+7 bytes" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_written_files_get_the_mode_that_open_gives(tmp_path):
    mask = os.umask(0o027)
    try:
        assert main(["fom", "--n", "16", "--t-final", "0.1", "--out", str(tmp_path / "run")]) == 0
        save_trajectory(Trajectory(np.zeros((2, 3)), np.arange(2.0)), tmp_path / "t.bin")
    finally:
        os.umask(mask)
    for path in (tmp_path / "run" / "fom_trajectory.bin", tmp_path / "t.bin"):
        assert stat.S_IMODE(path.stat().st_mode) == 0o640, path


def test_rank_above_snapshot_count_is_a_config_error(tmp_path, capsys):
    # 100 steps at stride 50 give 3 snapshots, fewer than the default ranks
    out = str(tmp_path / "few")
    assert main(["reproduce", "--n", "40", "--t-final", "1", "--variants", "sp-pod-1",
                 "--out", out]) == 2
    message = capsys.readouterr().err
    assert "rank r=20" in message and "min(40, 3)" in message and "stride 50" in message
    # 5 snapshots hold r = 2, but not the interpolation size 3r of sp-deim
    tail = ["--n", "40", "--t-final", "1", "--stride", "25", "--r", "2",
            "--deim-mult", "3", "--out", out]
    assert main(["offline", "--variants", "sp-deim-1", *tail]) == 2
    message = capsys.readouterr().err
    assert "interpolation size s=6 (r=2)" in message and "min(40, 5)" in message
    assert main(["offline", "--variants", "sp-pod-1", *tail]) == 0


def test_offline_rank_failure_names_the_stage_set_and_rank(tmp_path, capsys):
    # 5 snapshots give the shifted set, whose first column is zero, rank 4
    out = str(tmp_path / "few")
    assert main(["reproduce", "--n", "40", "--t-final", "1", "--stride", "25", "--r", "5",
                 "--variants", "sp-pod-2", "--out", out]) == 3
    message = capsys.readouterr().err
    assert "offline stage, POD of shifted state-u snapshots at r=5" in message
    assert "numerical rank below r=5" in message


def test_all_zero_snapshot_set_names_the_rank_without_a_warning(tmp_path, capsys):
    # one snapshot: the shifted set is all zero, so sigma_1 = 0
    out = str(tmp_path / "zero")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["reproduce", "--n", "8", "--t-final", "0", "--r", "1",
                     "--variants", "sp-pod-2", "--out", out]) == 3
    message = capsys.readouterr().err
    assert "numerical rank below r=1: sigma_1 = 0" in message
    assert "nan" not in message


def test_main_happy_path(tmp_path):
    out = tmp_path / "ok"
    argv_tail = ["--n", "16", "--t-final", "0.5", "--stride", "10", "--r", "2",
                 "--variants", "sp-pod-1", "--out", str(out)]
    assert main(["fom", *argv_tail]) == 0
    assert main(["offline", *argv_tail]) == 0
    assert main(["online", "--rom", str(out / "rom_sp-pod-1_r2.bin"), *argv_tail]) == 0
    report = json.loads((out / "report_sp-pod-1_r2.json").read_text())
    assert report["variant"] == "sp-pod-1"


CONFIG_VALUES = {
    "n": "64",
    "c_speed": "0.2",
    "length": "2.0",
    "dt": "0.02",
    "t_final": "1.0",
    "stride": "5",
    "r": "3,5",
    "deim_mult": "3",
    "variants": "sp-pod-1,g-rom",
    "picard_tol": "1e-10",
    "picard_max_iter": "50",
    "out": "elsewhere",
}


@pytest.mark.parametrize("key", sorted(_CONFIG_PARSERS))
def test_config_file_key_matches_flag(tmp_path, key):
    conf = tmp_path / "one.conf"
    conf.write_text(f"{key} = {CONFIG_VALUES[key]}\n")
    from_file = build_config(build_parser().parse_args(["fom", "--config", str(conf)]))
    flag = "--" + key.replace("_", "-")
    from_flag = build_config(build_parser().parse_args(["fom", flag, CONFIG_VALUES[key]]))
    assert from_file == from_flag != PipelineConfig()


# arbitrary text, and text that parses as a number or a list, so that the
# checks behind the parsers are reached too
SETTING_TEXT = (
    st.text()
    | st.integers().map(str)
    | st.floats().map(repr)
    | st.lists(st.integers(-2, 30).map(str) | st.sampled_from(VARIANT_TAGS)).map(",".join)
)


@PROPERTY
@given(key=st.sampled_from(sorted(_CONFIG_PARSERS)), text=SETTING_TEXT)
def test_any_flag_text_gives_a_config_or_a_config_error(key, text):
    # only the configuration is built, never a run, so the size checks
    # must refuse an oversized trajectory before anything is allocated
    args = build_parser().parse_args(["fom", "--" + key.replace("_", "-") + "=" + text])
    try:
        cfg = build_config(args)
    except ConfigError:
        return
    assert isinstance(cfg, PipelineConfig)


CONFIG_LINE = st.builds(
    "{} = {}".format, st.sampled_from(sorted(_CONFIG_PARSERS)), SETTING_TEXT
)


@PROPERTY
@given(data=st.binary() | st.lists(CONFIG_LINE).map(lambda lines: "\n".join(lines).encode()))
def test_any_config_file_gives_a_config_or_a_config_error(tmp_path, data):
    conf = tmp_path / "any.conf"
    conf.write_bytes(data)
    try:
        cfg = build_config(build_parser().parse_args(["fom", "--config", str(conf)]))
    except ConfigError:
        return
    assert isinstance(cfg, PipelineConfig)


@pytest.fixture(scope="module")
def deim_run(tmp_path_factory):
    """Trajectory and one sp-deim-1 artifact at n=32, r=2."""
    out = tmp_path_factory.mktemp("deim")
    tail = ["--n", "32", "--t-final", "0.5", "--stride", "10", "--r", "2",
            "--variants", "sp-deim-1", "--out", str(out)]
    assert main(["fom", *tail]) == 0
    assert main(["offline", *tail]) == 0
    return out, tail


@pytest.mark.parametrize(
    "case",
    (
        "index-out-of-range",
        "duplicate-index",
        "nan-weight",
        "pod-with-points",
        "shifted-galerkin",
        "version-1",
    ),
)
def test_online_rejects_malformed_artifact(deim_run, tmp_path, case):
    out, tail = deim_run
    rom = out / "rom_sp-deim-1_r2.bin"
    assert main(["online", "--rom", str(rom), *tail]) == 0
    data = bytearray(rom.read_bytes())
    (s,) = struct.unpack_from("<Q", data, 41)  # last header field
    at = len(data) - 16 * s  # indices, then weights, close the file
    if case == "index-out-of-range":
        data[at : at + 8] = struct.pack("<Q", 10**6)
    elif case == "duplicate-index":
        data[at + 8 : at + 16] = data[at : at + 8]
    elif case == "nan-weight":
        data[-8:] = struct.pack("<d", float("nan"))
    elif case == "pod-with-points":
        data[12:16] = struct.pack("<I", 1)  # variant code of sp-pod
    elif case == "version-1":
        data[8:12] = struct.pack("<I", 1)  # the old layout is not read
    else:
        data[12:17] = struct.pack("<IB", 0, 1)  # g-rom with the shift flag
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(data))
    assert main(["online", "--rom", str(bad), *tail]) == 4


def test_online_rejects_oversized_trajectory_header(deim_run, tmp_path):
    out, tail = deim_run
    data = bytearray((out / "fom_trajectory.bin").read_bytes())
    data[12:28] = struct.pack("<QQ", 1 << 18, 1 << 18)  # dim and count
    bad = tmp_path / "traj.bin"
    bad.write_bytes(bytes(data))
    rom = str(out / "rom_sp-deim-1_r2.bin")
    assert main(["online", "--rom", rom, "--traj", str(bad), *tail]) == 4


@pytest.mark.parametrize("dims", ((1 << 28, 2, 2), (1 << 32, 1 << 32, 1 << 32)))
def test_online_rejects_oversized_artifact_header(deim_run, tmp_path, dims):
    # checked against the file size before anything is allocated: a
    # 2^28-row basis would raise MemoryError, and 2^32 x 2^32 overflows an
    # int64 element count
    out, tail = deim_run
    data = bytearray((out / "rom_sp-deim-1_r2.bin").read_bytes())
    data[17:41] = struct.pack("<QQQ", *dims)  # n, r_u, r_v
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(data))
    assert main(["online", "--rom", str(bad), *tail]) == 4


def test_offline_interpolation_failure_names_the_stage_set_and_size(
    deim_run, tmp_path, monkeypatch, capsys
):
    out, tail = deim_run

    def singular(basis, c):
        raise np.linalg.LinAlgError("singular interpolation matrix at selection step 3")

    monkeypatch.setattr(cli, "build_deim", singular)
    traj = str(out / "fom_trajectory.bin")
    assert main(["offline", "--traj", traj, *tail, "--out", str(tmp_path)]) == 3
    message = capsys.readouterr().err
    assert "offline stage, interpolation of nonlinear-G snapshots at s=4 (r=2)" in message
    assert "selection step 3" in message


def record_calls(monkeypatch, name):
    """Wrap cli.<name> so that the arguments of each call are recorded."""
    calls = []
    real = getattr(cli, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, name, wrapper)
    return calls


@pytest.fixture(scope="module")
def three_rank_run(tmp_path_factory):
    """Trajectory (11 snapshots at n=32) and the offline products of every
    variant at r = 2, 3, 4."""
    out = tmp_path_factory.mktemp("ranks")
    tail = ["--n", "32", "--t-final", "1", "--stride", "10", "--r", "2,3,4", "--out", str(out)]
    assert main(["fom", *tail]) == 0
    assert main(["offline", *tail]) == 0
    return out, [*tail, "--traj", str(out / "fom_trajectory.bin")]


def test_offline_decomposes_each_snapshot_set_once(three_rank_run, tmp_path, monkeypatch):
    _, tail = three_rank_run
    pods = record_calls(monkeypatch, "compute_pod")
    deims = record_calls(monkeypatch, "build_deim")
    assert main(["offline", *tail, "--out", str(tmp_path)]) == 0
    # six sets, plain and shifted, each at the largest rank (4) or size (8);
    # fom starts at v = 0, so the shifted v set is the plain one and is not
    # decomposed again
    decomposed = sorted((snaps.kind, snaps.shift_ref is not None, r) for snaps, r in pods)
    assert decomposed == sorted(
        (kind, shifted, 8 if kind == "nonlinear-G" else 4)
        for kind in ("state-u", "state-v", "nonlinear-G")
        for shifted in (False, True)
        if (kind, shifted) != ("state-v", True)
    )
    assert sorted(basis.r for basis, _ in deims) == [8, 8]


@pytest.mark.parametrize("v0", ("zero", "minus-zero", "nonzero"))
def test_offline_decomposes_a_shifted_set_unless_it_is_the_plain_one(three_rank_run, tmp_path,
                                                                     monkeypatch, v0):
    # the shifted v set is decomposed unless its matrix is the plain one bit
    # for bit: a reference of -0.0 turns the -0.0 entries of the first
    # column into 0.0, which compare equal as floats
    out, tail = three_rank_run
    traj = load_trajectory(out / "fom_trajectory.bin")
    states = np.array(traj.states)
    if v0 == "minus-zero":
        states[0, 32:] = -0.0
    elif v0 == "nonzero":
        states[:, 32:] += 0.25
    save_trajectory(Trajectory(states, traj.times), tmp_path / "traj.bin", dt=traj.dt)
    pods = record_calls(monkeypatch, "compute_pod")
    argv = ["offline", *tail, "--traj", str(tmp_path / "traj.bin"), "--out", str(tmp_path)]
    assert main(argv) == 0
    shifted = [snaps.kind for snaps, _ in pods if snaps.shift_ref is not None]
    assert shifted.count("state-v") == (v0 != "zero")
    # the artifacts are those of a decomposition of every set
    monkeypatch.setattr(cli, "_same_columns", lambda a, b: False)
    assert main([*argv[:-1], str(tmp_path / "every")]) == 0
    for path in (tmp_path / "every").glob("rom_*.bin"):
        assert path.read_bytes() == (tmp_path / path.name).read_bytes(), path.name


@pytest.mark.parametrize("variants", ("sp-pod-1", "g-rom,sp-pod-2"))
def test_offline_collects_the_nonlinear_set_only_for_interpolation(
    three_rank_run, tmp_path, monkeypatch, variants
):
    out, tail = three_rank_run
    collected = record_calls(monkeypatch, "collect")
    assert main(["offline", *tail, "--variants", variants, "--out", str(tmp_path)]) == 0
    assert [args[-1] for args in collected] == ["state-u", "state-v"]
    # each file it writes holds what the run with every variant wrote
    log = json.loads((tmp_path / "offline_log.json").read_text())
    every = json.loads((out / "offline_log.json").read_text())
    for key, entry in log.items():
        assert entry == {k: every[key][k] for k in entry}
    for path in tmp_path.glob("*.bin"):
        assert path.read_bytes() == (out / path.name).read_bytes(), path.name


@settings(PROPERTY, max_examples=150)
@given(
    n=st.integers(1, 24),
    steps=st.integers(0, 12),
    dt=st.sampled_from(("0.01", "0.05", "0.25")),
    stride=st.integers(1, 6),
    ranks=st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True),
    deim_mult=st.integers(1, 4),
    variants=st.lists(st.sampled_from(VARIANT_TAGS), min_size=1, unique=True),
    c_speed=st.floats(1e-3, 10),
)
def test_reproduce_on_tiny_grids_ends_with_a_documented_exit_code(
    n, steps, dt, stride, ranks, deim_mult, variants, c_speed
):
    with tempfile.TemporaryDirectory() as out:
        argv = ["reproduce", "--n", str(n), "--dt", dt, "--t-final", repr(steps * float(dt)),
                "--stride", str(stride), "--r", ",".join(map(str, ranks)),
                "--deim-mult", str(deim_mult), "--variants", ",".join(variants),
                "--c-speed", repr(c_speed), "--out", out]
        assert main(argv) in (0, 2, 3, 4)


def test_online_block_dimension_mismatch_is_a_config_error(deim_run, capsys):
    out, tail = deim_run
    rom = str(out / "rom_sp-deim-1_r2.bin")
    assert main(["online", "--rom", rom, *tail, "--n", "40"]) == 2
    err = capsys.readouterr().err
    assert "n = 32" in err and "n = 40" in err


@pytest.mark.parametrize(
    "command, flags, named",
    (
        ("online", ["--dt", "0.02"], ("step size 0.01", "dt = 0.02")),
        ("online", ["--t-final", "0.25"], ("holds 51 states", "t_final = 0.25", "takes 26")),
        ("offline", ["--dt", "0.02"], ("step size 0.01", "dt = 0.02")),
    ),
)
def test_trajectory_of_another_time_grid_is_a_config_error(deim_run, tmp_path, capsys, command,
                                                           flags, named):
    out, tail = deim_run
    fresh = tmp_path / "fresh"
    argv = [command, *tail, "--traj", str(out / "fom_trajectory.bin"), "--out", str(fresh),
            *flags]
    if command == "online":
        argv += ["--rom", str(out / "rom_sp-deim-1_r2.bin")]
    assert main(argv) == 2
    message = capsys.readouterr().err
    assert all(part in message for part in named), message
    assert not fresh.exists()


def test_trajectory_of_another_grid_size_is_a_config_error(deim_run, tmp_path, capsys):
    out, tail = deim_run
    fresh = tmp_path / "fresh"
    assert main(["offline", *tail, "--n", "64", "--traj", str(out / "fom_trajectory.bin"),
                 "--out", str(fresh)]) == 2
    assert "trajectory dimension 64 does not match 2*n = 128" in capsys.readouterr().err
    assert not fresh.exists()


def test_empty_variant_list_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["fom", "--n", "16", "--t-final", "0.1", "--variants", ",",
                 "--out", str(out)]) == 2
    assert "variant list is empty" in capsys.readouterr().err
    assert not out.exists()


def test_failed_fom_run_leaves_no_output_directory(tmp_path, capsys):
    # one Picard iteration per step cannot converge: exit 3, and --out,
    # which did not exist, still does not
    out = tmp_path / "D"
    argv = ["fom", "--n", "40", "--t-final", "1", "--picard-max-iter", "1", "--out", str(out)]
    assert main(argv) == 3
    assert "full-order model at step 0" in capsys.readouterr().err
    assert not out.exists()
    assert list(tmp_path.iterdir()) == []  # nor a temporary file beside it
    # over an earlier run, a failed one leaves that run's files as they were
    assert main(argv[:5] + argv[7:]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert main(argv) == 3
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
    assert list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize("flags", (["--c-speed", "0.3"], ["--length", "2"]))
def test_trajectory_of_another_system_is_a_config_error(deim_run, tmp_path, capsys, flags):
    out, tail = deim_run
    fresh = tmp_path / "fresh"
    argv = ["online", "--rom", str(out / "rom_sp-deim-1_r2.bin"), *tail,
            "--traj", str(out / "fom_trajectory.bin"), "--out", str(fresh), *flags]
    assert main(argv) == 2
    message = capsys.readouterr().err
    first = (out / "fom_energy.csv").read_text().splitlines()[1].split(",")[1]
    assert "another wave speed or domain length" in message and first in message, message
    assert not fresh.exists()


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """fom and offline outputs at n=16, r=2, one directory per setting."""
    runs = {}

    def run(c_speed, length, dt, t_final):
        key = (c_speed, length, dt, t_final)
        if key not in runs:
            out = tmp_path_factory.mktemp("tiny")
            flags = ["--n", "16", "--stride", "2", "--r", "2", "--variants", "sp-pod-1",
                     "--c-speed", c_speed, "--length", length, "--dt", dt,
                     "--t-final", t_final, "--out", str(out)]
            assert main(["fom", *flags]) == 0
            assert main(["offline", *flags]) == 0
            runs[key] = out
        return runs[key]

    return run


SETTINGS = st.tuples(
    st.sampled_from(("0.1", "0.15")),  # c_speed
    st.sampled_from(("1.0", "1.5")),  # length
    st.sampled_from(("0.01", "0.02")),  # dt
    st.sampled_from(("0.2", "0.4")),  # t_final
)


@settings(PROPERTY, max_examples=40)
@given(written=SETTINGS, configured=SETTINGS)
def test_online_accepts_only_the_trajectory_of_its_own_settings(tiny_runs, written, configured):
    out = tiny_runs(*written)
    c_speed, length, dt, t_final = configured
    with tempfile.TemporaryDirectory() as fresh:
        argv = ["online", "--rom", str(out / "rom_sp-pod-1_r2.bin"),
                "--traj", str(out / "fom_trajectory.bin"), "--n", "16", "--r", "2",
                "--c-speed", c_speed, "--length", length, "--dt", dt, "--t-final", t_final,
                "--out", str(Path(fresh) / "out")]
        assert main(argv) == (0 if configured == written else 2)


def test_solver_failure_names_the_model(deim_run, tmp_path, monkeypatch, capsys,
                                        no_new_thread):
    # the first run fails before any repeat is started
    out, tail = deim_run
    threads = []
    integrate = rom.ReducedModel.integrate

    def recorded_integrate(self, z0, config):
        threads.append(threading.current_thread())
        return integrate(self, z0, config)

    monkeypatch.setattr(rom.ReducedModel, "integrate", recorded_integrate)
    model = str(out / "rom_sp-deim-1_r2.bin")
    fresh = tmp_path / "online"
    argv = ["online", "--rom", model, "--traj", str(out / "fom_trajectory.bin"), *tail,
            "--out", str(fresh), "--picard-max-iter", "1"]
    assert main(argv) == 3
    no_new_thread()
    assert "in sp-deim-1 r=2 at step 0" in capsys.readouterr().err
    assert threads == [threading.main_thread()]
    assert not list(fresh.glob("report_*")) and not list(fresh.glob("energy_*"))
    argv = [*tail, "--out", str(tmp_path / "reproduce"), "--picard-max-iter", "1"]
    assert main(["reproduce", *argv]) == 3
    assert "in the full-order model at step 0" in capsys.readouterr().err


def test_online_reads_the_energy_series_fom_wrote(deim_run):
    out, tail = deim_run
    wcfg = build_config(build_parser().parse_args(["fom", *tail])).wave_config()
    traj = load_trajectory(out / "fom_trajectory.bin")
    series = read_series_csv(out / "fom_energy.csv", traj.times)
    expected = energy_series_of_states(assemble_wave_fom(wcfg).energy, traj, wcfg.dx)
    assert np.array_equal(series, expected)


# a damaged row k (line k + 1) and what replaces its time and its value
_DAMAGED_ROWS = {
    "nan-value-row-5": (5, None, "nan"),
    "nan-value-row-1": (1, None, "nan"),
    "infinite-value": (3, None, "-inf"),
    "time-not-a-number": (4, "banana", None),
    "time-of-another-row": (3, "0.04", None),  # the time of row 5
}


@pytest.mark.parametrize("case", ("missing", "bad-header", "one-row-short", "garbled",
                                  "extra-column", *_DAMAGED_ROWS))
def test_online_needs_the_energy_series_beside_the_trajectory(deim_run, tmp_path, case, capsys):
    out, tail = deim_run
    (tmp_path / "fom_trajectory.bin").write_bytes((out / "fom_trajectory.bin").read_bytes())
    lines = (out / "fom_energy.csv").read_text().splitlines(keepends=True)
    if case == "bad-header":
        lines[0] = "t,energy\n"
    elif case == "one-row-short":
        lines = lines[:-1]
    elif case == "garbled":
        lines[3] = lines[3].replace(",", ",x")
    elif case == "extra-column":
        lines[2] = lines[2].replace("\n", ",0.5\n")
    elif case in _DAMAGED_ROWS:
        row, t, value = _DAMAGED_ROWS[case]
        old_t, old_value = lines[row].rstrip("\n").split(",")
        lines[row] = f"{t or old_t},{value or old_value}\n"
    if case != "missing":
        (tmp_path / "fom_energy.csv").write_text("".join(lines))
    rom = str(out / "rom_sp-deim-1_r2.bin")
    traj = str(tmp_path / "fom_trajectory.bin")
    fresh = tmp_path / "out"
    assert main(["online", "--rom", rom, "--traj", traj, *tail, "--out", str(fresh)]) == 4
    err = capsys.readouterr().err
    assert str(tmp_path / "fom_energy.csv") in err
    if case in _DAMAGED_ROWS:
        assert f"row {_DAMAGED_ROWS[case][0]} " in err
    if case == "extra-column":
        assert "row 2 " in err
    assert not fresh.exists()


def test_nan_result_is_a_numerical_failure_without_a_report(deim_run, tmp_path, monkeypatch,
                                                           capsys):
    out, tail = deim_run
    monkeypatch.setattr(cli, "e_inf", lambda *args: float("nan"))
    rom = str(out / "rom_sp-deim-1_r2.bin")
    traj = str(out / "fom_trajectory.bin")
    assert main(["online", "--rom", rom, "--traj", traj, *tail, "--out", str(tmp_path)]) == 3
    assert "report_sp-deim-1_r2.json" in capsys.readouterr().err
    assert not list(tmp_path.glob("report_*.json"))


# ---------------------------------------------------------------------------
# The worker threads of fom and online: the results and failures of one
# thread, and no thread left behind.


@pytest.mark.parametrize("tag", VARIANT_TAGS)
def test_online_run_reports_what_direct_calls_give(three_rank_run, fast_switching, tag,
                                                    no_new_thread):
    out, tail = three_rank_run
    cfg = build_config(build_parser().parse_args(["offline", *tail]))
    wcfg = cfg.wave_config()
    model = load_rom(out / f"rom_{tag}_r4.bin", assemble_wave_fom(wcfg))
    with open_trajectory(out / "fom_trajectory.bin") as fom_traj:
        fom_series = read_series_csv(out / "fom_energy.csv", fom_traj.times)
        [z0] = fom_traj.rows([0])
        report, rom_traj, rows = cli._online_run(cfg, model, fom_traj, z0, fom_series)
        no_new_thread()
        expected = model.integrate(model.initial_coefficients(z0), cfg.integrator_config())
        error = e_inf(fom_traj, expected, model)
    assert np.array_equal(rom_traj.states, expected.states)
    energies, offset, drift = hamiltonian_series(model, expected, wcfg.dx, fom_series)
    assert rows == series_rows(expected.times, energies)  # repr tells finite floats apart
    assert (report.e_inf, report.h_offset_max, report.h_drift_max) == (error, offset, drift)
    assert (report.steps, report.picard_avg_iters) == (
        expected.steps, float(np.mean(expected.picard_iters)))


def test_online_runs_its_repeats_together_after_its_first_run(deim_run, tmp_path, monkeypatch,
                                                              fast_switching, no_new_thread):
    # each repeat waits until the other has begun, or 5 s: only then do
    # they overlap
    out, tail = deim_run
    begun = threading.Barrier(2, timeout=5)
    spans, seconds = [], []
    integrate, timed = rom.ReducedModel.integrate, cli.time_online

    def integrate_alongside(self, z0, config):
        start = time.perf_counter()
        if threading.current_thread() is not threading.main_thread():
            with contextlib.suppress(threading.BrokenBarrierError):
                begun.wait()
        traj = integrate(self, z0, config)
        spans.append((threading.current_thread(), start, time.perf_counter()))
        return traj

    def recorded_time_online(fn):
        result, elapsed = timed(fn)
        seconds.append(elapsed)
        return result, elapsed

    monkeypatch.setattr(rom.ReducedModel, "integrate", integrate_alongside)
    monkeypatch.setattr(cli, "time_online", recorded_time_online)
    model = str(out / "rom_sp-deim-1_r2.bin")
    argv = ["online", "--rom", model, "--traj", str(out / "fom_trajectory.bin"), *tail,
            "--out", str(tmp_path)]
    assert main(argv) == 0
    no_new_thread()
    assert len(spans) == 3 and len({thread for thread, _, _ in spans}) == 3
    (first, _, first_end), *repeats = sorted(spans, key=lambda span: span[1])
    assert first is threading.main_thread()
    assert all(first_end < start for _, start, _ in repeats)  # the first run runs alone
    [(_, start_a, end_a), (_, start_b, end_b)] = repeats
    assert start_a < end_b and start_b < end_a
    report = json.loads((tmp_path / "report_sp-deim-1_r2.json").read_text())
    assert len(seconds) == 3 and report["online_seconds"] == min(seconds)


@pytest.mark.parametrize("states", (1, 31, 32, 33, 65))
def test_fom_writes_what_one_thread_would(tmp_path, fast_switching, states, no_new_thread):
    # around the blocks of 32 states that the worker stores
    out = tmp_path / "out"
    cfg = small_config(out, t_final=round(0.01 * (states - 1), 2))
    summary = cmd_fom(cfg)
    no_new_thread()
    wcfg = cfg.wave_config()
    fom = assemble_wave_fom(wcfg)
    traj = fom.integrate(initial_state(wcfg), cfg.integrator_config())
    assert len(traj) == states
    series = energy_series_of_states(fom.energy, traj, wcfg.dx)
    save_trajectory(traj, tmp_path / "fom_trajectory.bin")
    write_series_csv(tmp_path / "fom_energy.csv", traj.times, series)
    for name in ("fom_trajectory.bin", "fom_energy.csv"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name
    assert scrub_timing(summary) == {
        "h_dx": float(series[0]),
        "h_dx_drift_max": float(np.max(np.abs(series - series[0]))),
        "steps": states - 1,
        "picard_avg_iters": float(np.mean(traj.picard_iters)) if states > 1 else 0.0,
    }
    assert json.loads((out / "fom_summary.json").read_text()) == summary


def test_online_on_a_trajectory_truncated_after_its_check_writes_no_report(
        deim_run, tmp_path, monkeypatch, capsys, no_new_thread):
    # e_inf, which runs while the workers repeat the integration, is the
    # first to read the last states
    out, tail = deim_run
    for name in ("fom_trajectory.bin", "fom_energy.csv"):
        (tmp_path / name).write_bytes((out / name).read_bytes())
    traj = tmp_path / "fom_trajectory.bin"
    check = cli._check_fom_trajectory

    def check_then_truncate(cfg, fom_traj):
        check(cfg, fom_traj)
        os.truncate(traj, traj.stat().st_size - 8)

    monkeypatch.setattr(cli, "_check_fom_trajectory", check_then_truncate)
    fresh = tmp_path / "out"
    rom = str(out / "rom_sp-deim-1_r2.bin")
    assert main(["online", "--rom", rom, "--traj", str(traj), *tail, "--out", str(fresh)]) == 4
    no_new_thread()
    assert "truncated file" in capsys.readouterr().err
    assert list(fresh.iterdir()) == []


def test_online_shares_e_inf_with_a_finished_repeat(deim_run, monkeypatch, fast_switching,
                                                    no_new_thread, tmp_path):
    # 51 states in two blocks: each thread's first block read waits until
    # the other thread has begun one, or 5 s, so a worker freed by a
    # repeat must claim a block
    out, tail = deim_run
    begun = threading.Barrier(2, timeout=5)
    readers = []
    read = TrajectoryFile.read

    def read_together(self, start, buffer):
        if buffer.ndim == 2 and threading.current_thread() not in readers:  # a block of e_inf
            readers.append(threading.current_thread())
            begun.wait()
        return read(self, start, buffer)

    monkeypatch.setattr(TrajectoryFile, "read", read_together)
    rom_path = out / "rom_sp-deim-1_r2.bin"
    traj_path = out / "fom_trajectory.bin"
    argv = ["online", "--rom", str(rom_path), "--traj", str(traj_path), *tail,
            "--out", str(tmp_path)]
    assert main(argv) == 0
    no_new_thread()
    assert len(readers) == 2 and readers[0] is not readers[1]
    assert threading.main_thread() in readers
    monkeypatch.undo()
    cfg = build_config(build_parser().parse_args(argv))
    model = load_rom(rom_path, assemble_wave_fom(cfg.wave_config()))
    with open_trajectory(traj_path) as fom_traj:
        [z0] = fom_traj.rows([0])
        rom_traj = model.integrate(model.initial_coefficients(z0), cfg.integrator_config())
        expected = e_inf(fom_traj, rom_traj, model)
    report = json.loads((tmp_path / "report_sp-deim-1_r2.json").read_text())
    assert struct.pack("<d", report["e_inf"]) == struct.pack("<d", expected)


def test_online_on_a_trajectory_truncated_under_its_helper_writes_no_report(
        deim_run, tmp_path, monkeypatch, capsys, fast_switching, no_new_thread):
    # the repeats start once the main thread has claimed the first of the
    # two blocks, whose read waits until a worker has tried the second,
    # truncated one, or 5 s
    out, tail = deim_run
    for name in ("fom_trajectory.bin", "fom_energy.csv"):
        (tmp_path / name).write_bytes((out / name).read_bytes())
    traj = tmp_path / "fom_trajectory.bin"
    check = cli._check_fom_trajectory

    def check_then_truncate(cfg, fom_traj):
        check(cfg, fom_traj)
        os.truncate(traj, traj.stat().st_size - 8)

    claimed, tried = threading.Event(), threading.Event()
    failed = []
    integrate, read = rom.ReducedModel.integrate, TrajectoryFile.read

    def integrate_after_the_first_claim(self, z0, config):
        if threading.current_thread() is not threading.main_thread():
            assert claimed.wait(5)
        return integrate(self, z0, config)

    def read_in_turn(self, start, buffer):
        if buffer.ndim == 2 and threading.current_thread() is threading.main_thread():
            claimed.set()
            assert tried.wait(5)
        elif buffer.ndim == 2 and start == 32:
            tried.set()
            failed.append(threading.current_thread())
        return read(self, start, buffer)

    monkeypatch.setattr(cli, "_check_fom_trajectory", check_then_truncate)
    monkeypatch.setattr(rom.ReducedModel, "integrate", integrate_after_the_first_claim)
    monkeypatch.setattr(TrajectoryFile, "read", read_in_turn)
    fresh = tmp_path / "out"
    rom_path = str(out / "rom_sp-deim-1_r2.bin")
    assert main(["online", "--rom", rom_path, "--traj", str(traj), *tail,
                 "--out", str(fresh)]) == 4
    no_new_thread()
    assert len(failed) == 1 and failed[0] is not threading.main_thread()
    assert "truncated file" in capsys.readouterr().err
    assert list(fresh.iterdir()) == []


def test_reproduce_writes_the_same_files_with_and_without_the_loops(tmp_path, monkeypatch):
    # the byte-identity proof of a refactor, on a small grid: every file
    # alike but for the timings, `online_seconds` and the times of table.txt
    if _native.checked() is None:
        pytest.skip("the compiled AVF loops are unavailable here")
    flags = ["--n", "32", "--t-final", "1", "--stride", "5", "--r", "3,4"]
    assert main(["reproduce", *flags, "--out", str(tmp_path / "loops")]) == 0
    monkeypatch.setattr(_native, "load", lambda: None)
    _native.checked.cache_clear()
    try:
        assert _native.checked() is None
        assert main(["reproduce", *flags, "--out", str(tmp_path / "numpy")]) == 0
    finally:
        _native.checked.cache_clear()

    def untimed(path):
        text = path.read_bytes()
        if path.suffix == ".json":
            return re.sub(rb'"online_seconds": [^,\n]+', b"", text)
        if path.name == "table.txt":
            lines = text.split(b"\n")
            lines[0] = re.sub(rb"steps, .* s$", b"steps", lines[0])
            return b"\n".join(line for line in lines if not line.startswith(b"t_cpu"))
        return text

    names = sorted(path.name for path in (tmp_path / "loops").iterdir())
    assert len(names) == 40
    assert sorted(path.name for path in (tmp_path / "numpy").iterdir()) == names
    for name in names:
        assert untimed(tmp_path / "loops" / name) == untimed(tmp_path / "numpy" / name), name


@pytest.mark.parametrize("failing", (1, 4))  # a block inside the run, and the last one
def test_fom_whose_disk_fills_leaves_no_file(tmp_path, monkeypatch, capsys, failing,
                                              no_new_thread):
    # 101 states in 4 blocks: each is appended while the worker integrates
    # the next one, but the last
    writer = cli.trajectory_writer

    @contextlib.contextmanager
    def filling_writer(*args, **kwargs):
        with writer(*args, **kwargs) as append:
            blocks = itertools.count(1)

            def append_until_full(states):
                if next(blocks) == failing:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                append(states)

            yield append_until_full

    monkeypatch.setattr(cli, "trajectory_writer", filling_writer)
    out = tmp_path / "out"
    assert main(["fom", "--n", "16", "--t-final", "1", "--out", str(out)]) == 4
    no_new_thread()
    assert os.strerror(errno.ENOSPC) in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # neither --out nor a temporary file


def test_a_picard_failure_in_a_later_fom_block_names_its_step(tmp_path, monkeypatch, capsys,
                                                              no_new_thread):
    # the worker integrates the blocks.  A segment mean that turns NaN at
    # its call `limit`, the first call of step 70 (in the third block), on
    # the numpy path that every g_avg but sin_average takes; the
    # construction checks call it too
    wcfg = WaveConfig(n=16)
    calls = itertools.count()

    def counted(x0, x1):
        next(calls)
        return wave.sin_average(x0, x1)

    probe = dataclasses.replace(assemble_wave_fom(wcfg), g_avg=counted)
    probe.integrate(initial_state(wcfg), IntegratorConfig(dt=0.01, t_final=0.7))
    limit = next(calls)

    def failing_system(wcfg):
        calls = itertools.count()

        def g_avg(x0, x1):
            mean = wave.sin_average(x0, x1)
            return mean * np.nan if next(calls) >= limit else mean

        return dataclasses.replace(assemble_wave_fom(wcfg), g_avg=g_avg)

    config = IntegratorConfig(dt=0.01, t_final=1.0)
    with pytest.raises(cli.PicardDivergenceError, match="at step 70"):
        integrate_steps(failing_system(wcfg).make_step(config), initial_state(wcfg), config)
    monkeypatch.setattr(cli, "assemble_wave_fom", failing_system)
    out = tmp_path / "out"
    assert main(["fom", "--n", "16", "--t-final", "1", "--out", str(out)]) == 3
    no_new_thread()
    assert "in the full-order model at step 70" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_names_the_benchmark_uses_exist():
    # the traced benchmark wraps these names of the CLI namespace and
    # ReducedModel methods; deleting one would crash it
    root = Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", root / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    used = set(re.findall(r"\bcli\.(\w+)", (root / "workloads.py").read_text()))
    for name in set(tracer.SPANNED) | used:
        assert hasattr(cli, name), name
    # the tracer wraps ReducedModel.make_rhs and passes it a counted g_fn
    fom = assemble_wave_fom(WaveConfig(n=8))
    eye = PodBasis(np.eye(8), np.ones(8))
    model = build_rom(RomVariant.from_tag("sp-pod-1"), eye, eye, fom)
    assert model.make_rhs(g=model.g_fn)(np.zeros(16)).shape == (16,)


def test_the_traced_benchmark_path_runs(tmp_path):
    # perfbench's tracer calls integrate(f, z0, config, observer) and
    # save_trajectory(traj, path, dt=dt) through its wrappers, which only
    # a traced benchmark run reaches otherwise
    root = Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", root / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    before = {name: getattr(cli, name) for name in tracer.SPANNED}
    make_rhs = rom.ReducedModel.make_rhs
    recorder = tracer.Tracer()
    undo = tracer.install(recorder, cli, rom, EvalCounter)
    try:
        out = tmp_path / "run"
        assert main(["reproduce", "--n", "32", "--t-final", "0.5", "--stride", "5", "--r", "3",
                     "--variants", "sp-deim-2", "--out", str(out)]) == 0
        wcfg = WaveConfig(n=32)
        model = cli.load_rom(out / "rom_sp-deim-2_r3.bin", cli.assemble_wave_fom(wcfg))
        a0 = model.initial_coefficients(cli.initial_state(wcfg))
        traj = cli.integrate(model.make_rhs(), a0, IntegratorConfig(dt=0.01, t_final=0.1))
        cli.save_trajectory(traj, tmp_path / "rom.bin", dt=0.01)
    finally:
        undo()
    assert len(recorder.durations("cli.cmd_fom")) == 1
    assert recorder.picard["sp-deim-2"][1] == 10
    assert recorder.traj_bytes >= traj.states.nbytes > 0
    assert {name: getattr(cli, name) for name in tracer.SPANNED} == before
    assert rom.ReducedModel.make_rhs is make_rhs


def test_every_shim_is_a_name_the_benchmark_uses():
    # the reverse: a name that hamrom.cli imports only for perfbench (on a
    # `# noqa: F401` line) goes once perfbench stops using it
    root = Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", root / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    used = set(re.findall(r"\bcli\.(\w+)", (root / "workloads.py").read_text()))
    source = Path(cli.__file__).read_text()
    lines = source.splitlines()
    shims = {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if "# noqa: F401" in lines[alias.lineno - 1]
    }
    assert shims, "no shim found: the check would pass vacuously"
    assert sorted(shims - set(tracer.SPANNED) - used) == []


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
def test_memory_does_not_grow_with_the_horizon(tmp_path):
    # each stage in a process of its own at n = 500, over t = 5 and t = 50
    # with 101 snapshots each; the full-order trajectory is 4 MB and 40 MB.
    # The child reports the peak of its own memory map, VmHWM: Linux keeps
    # ru_maxrss over fork and exec, so a child's reads at least the size
    # of the test process.
    script = (
        "import sys\n"
        "from hamrom import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "[peak] = [line for line in open('/proc/self/status') if line.startswith('VmHWM:')]\n"
        "print(code, peak.split()[1])\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get(
        "PYTHONPATH"))))}
    peak_mb = {}
    for t_final, stride in (("5", "5"), ("50", "50")):
        out = tmp_path / f"t{t_final}"
        flags = ["--n", "500", "--t-final", t_final, "--stride", stride, "--r", "10",
                 "--variants", "sp-deim-2", "--out", str(out)]
        for stage, extra in (("fom", []), ("offline", []),
                             ("online", ["--rom", str(out / "rom_sp-deim-2_r10.bin")])):
            run = subprocess.run([sys.executable, "-c", script, stage, *flags, *extra], env=env,
                                 capture_output=True, text=True, timeout=300)
            code, kib = run.stdout.split()
            assert (run.returncode, code) == (0, "0"), run.stderr
            peak_mb[stage, t_final] = int(kib) / 1024
    for stage in ("fom", "offline", "online"):
        assert abs(peak_mb[stage, "50"] - peak_mb[stage, "5"]) < 8, peak_mb
