"""Command-line pipeline for the nonlinear-wave reduction benchmark.

Subcommands
-----------
fom        run the full-order model; write trajectory, energy CSV, summary
offline    collect snapshots, build bases/interpolation, write model files
online     integrate one reduced model and report its metrics against the
           trajectory and energy CSV that fom wrote
reproduce  full pipeline over all requested (variant, rank) pairs

Configuration comes from defaults, overridden by an optional key=value
config file (--config), overridden by command-line flags.  Exit codes:
0 success, 2 configuration error, 3 numerical failure, 4 I/O failure.

fom and online run their compiled integrations, which release the GIL,
on worker threads while the main thread does the bookkeeping: fom
integrates each block on one worker while the main thread stores the
block before it and formats its rows of the energy CSV, and online,
after its first run, runs its two timing repeats on two workers at once
while the main thread measures that run; the first worker to finish its
repeat then shares the `e_inf` blocks with the main thread.  The workers
are joined before the command returns or fails, and the files are
written only after that.
"""

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from decimal import Decimal
from pathlib import Path

import numpy as np

from ._binio import FileFormatError
from .deim import build_deim

# The pipeline does not call `integrate`, `load_trajectory`,
# `save_trajectory`, `save_basis`, `make_wave_rhs`, `make_wave_energy` or
# `write_series_csv`; they stay in this namespace because perfbench calls
# them or its tracer wraps them.
from .integrator import (
    IntegratorConfig,
    PicardDivergenceError,
    Trajectory,
    integrate,  # noqa: F401
    load_trajectory,  # noqa: F401
    open_trajectory,
    save_trajectory,  # noqa: F401
    trajectory_writer,
)
from .metrics import (
    _BLOCK,
    RunReport,
    e_inf,
    energy_series_of_states,
    hamiltonian_series,
    read_series_csv,
    series_rows,
    time_online,
    write_series_csv,  # noqa: F401
    write_series_rows,
)
from .pod import (
    PodBasis,
    RankDeficientError,
    compute_pod,
    save_basis,  # noqa: F401
)
from .rom import VARIANT_TAGS, RomVariant, build_rom, load_rom, save_rom
from .snapshots import SampledStates, collect, shift
from .wave import (
    WaveConfig,
    assemble_wave_fom,
    initial_state,
    make_wave_energy,  # noqa: F401
    make_wave_rhs,  # noqa: F401
)

__all__ = [
    "PipelineConfig",
    "ConfigError",
    "cmd_fom",
    "cmd_offline",
    "cmd_online",
    "cmd_reproduce",
    "main",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class PipelineConfig:
    """Benchmark parameters; the defaults reproduce the reference setup
    (n=500, dt=0.01, t_final=50, stride=50, c=0.1, r in {10, 20})."""

    n: int = 500
    c_speed: float = 0.1
    length: float = 1.0
    dt: float = 0.01
    t_final: float = 50.0
    stride: int = 50
    r_list: tuple = (10, 20)
    deim_mult: int = 2
    variants: tuple = VARIANT_TAGS
    picard_tol: float = 1e-12
    picard_max_iter: int = 100
    out: str = "hamrom-out"

    def wave_config(self) -> WaveConfig:
        return WaveConfig(c_speed=self.c_speed, length=self.length, n=self.n)

    def integrator_config(self) -> IntegratorConfig:
        return IntegratorConfig(
            dt=self.dt,
            t_final=self.t_final,
            picard_tol=self.picard_tol,
            picard_max_iter=self.picard_max_iter,
        )

    def benchmark_dict(self) -> dict:
        """Numeric parameters only (no paths), for deterministic reports."""
        return {k: v for k, v in asdict(self).items() if k != "out"}


def _parse_int_list(text):
    try:
        values = tuple(int(part) for part in str(text).split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"expected a comma-separated integer list, got {text!r}") from exc
    if not values or any(v < 1 for v in values):
        raise ConfigError(f"expected positive integers, got {text!r}")
    if len(set(values)) < len(values):
        raise ConfigError(f"repeated entry in {text!r}")
    return values


def _parse_variants(text):
    tags = tuple(part.strip() for part in str(text).split(",") if part.strip())
    for tag in tags:
        if tag not in VARIANT_TAGS:
            raise ConfigError(f"unknown variant {tag!r}; choose from {VARIANT_TAGS}")
    if not tags:
        raise ConfigError("variant list is empty")
    if len(set(tags)) < len(tags):
        raise ConfigError(f"repeated variant in {text!r}")
    return tags


# each setting once: its config-file key, parser and --help text (see _flag)
_CONFIG_PARSERS = {
    "n": (int, "number of grid points"),
    "c_speed": (float, "wave speed"),
    "length": (float, "domain length"),
    "dt": (float, "time step"),
    "t_final": (float, "final time"),
    "stride": (int, "snapshot sampling stride"),
    "r": (_parse_int_list, "comma-separated basis ranks"),
    "deim_mult": (int, "interpolation size as a multiple of r"),
    "variants": (_parse_variants, "comma-separated model tags"),
    "picard_tol": (float, "fixed-point update tolerance"),
    "picard_max_iter": (int, "fixed-point iteration cap"),
    "out": (str, "output directory"),
}

_KEY_TO_FIELD = {"r": "r_list"}


def _flag(key):
    """The command-line flag of a setting: --t-final for t_final."""
    return "--" + key.replace("_", "-")


def _parse_setting(key, text, where):
    """Parse `text` as setting `key`; a ValueError becomes a ConfigError at `where`."""
    try:
        return _CONFIG_PARSERS[key][0](text)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key}: {exc}") from None


def parse_config_file(path) -> dict:
    """Read a key=value file (# comments, blank lines allowed)."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    overrides = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        overrides[_KEY_TO_FIELD.get(key, key)] = _parse_setting(key, value, f"{path}:{lineno}")
    return overrides


def build_config(args) -> PipelineConfig:
    values = {}
    if getattr(args, "config", None):
        values.update(parse_config_file(args.config))
    for key in _CONFIG_PARSERS:
        text = getattr(args, key, None)
        if text is not None:
            values[_KEY_TO_FIELD.get(key, key)] = _parse_setting(key, text, _flag(key))
    try:
        cfg = PipelineConfig(**values)
        cfg.wave_config()
        steps = cfg.integrator_config().step_count()
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.stride < 1 or cfg.deim_mult < 1:
        raise ConfigError("stride and deim_mult must be positive")
    # checked before anything is allocated or written: a full-order run
    # streams its trajectory to the file system of --out and keeps 24 bytes
    # per state (times, energies, Picard counts)
    if args.command in ("fom", "reproduce"):
        size = 8 * 2 * cfg.n * (steps + 1)
        free, where = _free_bytes(cfg.out)
        if size > free:
            raise ConfigError(
                f"the full-order trajectory needs {Decimal(size):.3e} bytes, more than "
                f"the {free} bytes free on the file system of {where}"
            )
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if 24 * (steps + 1) > memory:
            raise ConfigError(
                f"the full-order run keeps {Decimal(24 * (steps + 1)):.3e} bytes of times, "
                f"energies and Picard counts, more than the {memory} bytes of physical memory"
            )
    return cfg


def _free_bytes(out):
    """(free bytes, directory): the space an unprivileged process may fill
    on the file system of the nearest existing directory of `out`."""
    where = os.path.abspath(out)
    while not os.path.isdir(where):
        where = os.path.dirname(where)
    fs = os.statvfs(where)
    return fs.f_bavail * fs.f_frsize, where


def _write_json(path, payload):
    """Write payload as strict JSON.  A NaN or infinite value raises
    FloatingPointError naming the file, before the file is opened."""
    try:
        text = json.dumps(payload, sort_keys=True, indent=1, allow_nan=False)
    except ValueError as exc:
        raise FloatingPointError(f"{path}: {exc}") from None
    with open(path, "w") as fh:
        fh.write(text + "\n")


# ---------------------------------------------------------------------------
# Pipeline stages.


def _timed_run(run, model):
    """time_online(run), naming `model` in a Picard failure."""
    try:
        return time_online(run)
    except PicardDivergenceError as exc:
        raise PicardDivergenceError(
            exc.iterations, exc.residual, exc.step, model=model
        ) from None


def cmd_fom(cfg: PipelineConfig) -> dict:
    """Run the full-order model (AVF steps) and persist trajectory + energy
    series.

    The run goes in blocks of `_BLOCK` states through one window, which
    one worker thread integrates in the compiled loop, without the GIL.
    While it integrates a block, the main thread stores a copy of the
    block before it: it takes the copy's energies, formats their rows of
    `fom_energy.csv` and appends the copy to a temporary file in `--out`,
    or beside it when it does not exist yet.  One block at most is in
    flight, and the errors come in the order of one thread: a block that
    fails to integrate or to store ends the run before any later one is
    stored.  The file becomes `fom_trajectory.bin` once the run has
    succeeded; only then is `--out` created, and `fom_summary.json` and
    `fom_energy.csv` are written, in that order.  `online_seconds` is
    the integration time of the blocks, each integrated while the block
    before it is stored."""
    wcfg = cfg.wave_config()
    icfg = cfg.integrator_config()
    fom = assemble_wave_fom(wcfg)
    out = Path(cfg.out)
    count = icfg.step_count() + 1
    times = np.arange(count) * cfg.dt
    blocks = fom.integrate_blocks(initial_state(wcfg), icfg, _BLOCK)
    series, rows, iterations, seconds = [], [], [], 0.0
    # the file grows in --out when it exists, else beside it, which may be
    # another directory to write in
    directory = out if out.is_dir() else out.parent
    directory.mkdir(parents=True, exist_ok=True)
    # the worker integrates and this thread stores: the temporaries of the
    # energies, 32 x n arrays, then stay in the main malloc arena, where a
    # worker's own arena would keep them resident after the command
    with trajectory_writer(out / "fom_trajectory.bin", fom.dim, count, cfg.dt,
                           directory=directory) as append, ThreadPoolExecutor(1) as pool:

        def integrate_block():
            return _timed_run(lambda: next(blocks), "the full-order model")

        pending = pool.submit(integrate_block)
        for start in range(0, count, _BLOCK):
            (states, iters), block_seconds = pending.result()
            if start + _BLOCK < count:  # the next block overwrites the window
                states = states.copy()
                pending = pool.submit(integrate_block)
            block = Trajectory(states, times[start : start + _BLOCK])
            series.append(energy_series_of_states(fom.energy, block, wcfg.dx))
            rows.append(series_rows(block.times, series[-1]))
            iterations.append(iters)
            append(states)
            seconds += block_seconds
        out.mkdir(exist_ok=True)
    series = np.concatenate(series)
    iterations = np.concatenate(iterations)
    summary = {
        "h_dx": float(series[0]),
        "h_dx_drift_max": float(np.max(np.abs(series - series[0]))),
        "steps": count - 1,
        "online_seconds": seconds,
        "picard_avg_iters": float(np.mean(iterations)) if count > 1 else 0.0,
    }
    _write_json(out / "fom_summary.json", summary)
    write_series_rows(out / "fom_energy.csv", "".join(rows))
    return summary


def _fom_trajectory_path(cfg, traj_path=None):
    return Path(traj_path) if traj_path else Path(cfg.out) / "fom_trajectory.bin"


def _check_fom_trajectory(cfg, traj):
    """Check the full-order trajectory file `traj` against the
    configuration: 2n values per state, step size dt and one state per
    step of t_final/dt, the initial state included."""
    if traj.dim != 2 * cfg.n:
        raise ConfigError(
            f"trajectory dimension {traj.dim} does not match 2*n = {2 * cfg.n}"
        )
    if traj.dt != cfg.dt:
        raise ConfigError(f"trajectory step size {traj.dt!r} does not match dt = {cfg.dt!r}")
    count = cfg.integrator_config().step_count() + 1
    if len(traj) != count:
        raise ConfigError(
            f"trajectory holds {len(traj)} states, but t_final = {cfg.t_final!r} "
            f"at dt = {cfg.dt!r} takes {count}"
        )


def _offline_step(what, build, *args):
    """build(*args), naming `what` in a rank or interpolation failure."""
    try:
        return build(*args)
    except (RankDeficientError, np.linalg.LinAlgError) as exc:
        raise type(exc)(f"offline stage, {what}: {exc}") from None


def _same_columns(a, b):
    """Whether two snapshot sets hold the same matrix bit for bit; compared
    as integers, so that -0.0 differs from 0.0."""
    return a.columns.shape == b.columns.shape and np.array_equal(
        a.columns.view(np.int64), b.columns.view(np.int64))


def cmd_offline(cfg: PipelineConfig, traj_path=None) -> dict:
    """Build bases, interpolation models, and reduced-model artifacts."""
    n = cfg.n
    fom = assemble_wave_fom(cfg.wave_config())
    G_fn = fom.G
    variants = [RomVariant.from_tag(tag) for tag in cfg.variants]
    # shift flag -> whether an sp-deim variant with that flag needs a DEIM model
    deim_for = {
        flag: any(v.kind == "sp-deim" and v.shifted == flag for v in variants)
        for flag in sorted({v.shifted for v in variants})
    }
    r_max = max(cfg.r_list)
    s_max = cfg.deim_mult * r_max
    needs_g = any(deim_for.values())

    # only the sampled states are read, once for every snapshot set
    with open_trajectory(_fom_trajectory_path(cfg, traj_path)) as traj:
        _check_fom_trajectory(cfg, traj)
        sampled = SampledStates(traj, cfg.stride)
    set_u = collect(sampled, cfg.stride, lambda z: z[:n], "state-u")
    # each basis needs r (each interpolation basis s >= r) snapshot columns
    what, size = f"rank r={r_max}", r_max
    if needs_g:
        what, size = f"interpolation size s={s_max} (r={r_max})", s_max
    if size > min(n, set_u.count):
        raise ConfigError(
            f"{what} exceeds min(n, snapshot count) = min({n}, {set_u.count}): "
            f"stride {cfg.stride} samples {set_u.count} of {len(sampled)} states"
        )
    set_v = collect(sampled, cfg.stride, lambda z: z[n:], "state-v")
    set_g = collect(sampled, cfg.stride, lambda z: G_fn(z[:n]), "nonlinear-G") if needs_g else None
    [z0] = sampled.rows([0])
    del sampled  # freed: the sets hold what the decompositions need
    sets = {False: (set_u, set_v, set_g)}
    if True in deim_for:
        u0, v0 = z0[:n], z0[n:]
        set_g_shift = shift(set_g, G_fn(u0)) if deim_for[True] else None
        sets[True] = (shift(set_u, u0), shift(set_v, v0), set_g_shift)

    # one decomposition per distinct snapshot matrix, at the largest rank
    # or size it serves; every rank takes leading columns and indices
    # (bases are nested and greedy selection is prefix-stable), so all
    # failures come before the first artifact is written
    largest = {}
    for flag, needs_deim in deim_for.items():
        label = "shifted " if flag else ""
        snaps_u, snaps_v, snaps_g = sets[flag]
        bases = []
        for i, snaps in enumerate((snaps_u, snaps_v)):
            if False in largest and _same_columns(sets[False][i], snaps):
                # a zero reference shifts nothing (fom starts at v = 0): the
                # plain basis serves, with the shift reference attached
                plain = largest[False][i]
                bases.append(PodBasis(plain.phi, plain.singular_values, snaps.shift_ref))
            else:
                bases.append(_offline_step(f"POD of {label}{snaps.kind} snapshots at r={r_max}",
                                           compute_pod, snaps, r_max))
        bu, bv = bases
        deim = None
        if needs_deim:
            what = f"interpolation of {label}{snaps_g.kind} snapshots at s={s_max} (r={r_max})"
            psi = _offline_step(what, compute_pod, snaps_g, s_max)
            deim = _offline_step(what, build_deim, psi, fom.c_u)
        largest[flag] = (bu, bv, deim)

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    log = {"snapshots": {"count": int(set_u.count), "stride": cfg.stride}}
    for r in cfg.r_list:
        entry = {}
        for flag, (bu_max, bv_max, deim_max) in largest.items():
            suffix = "_shifted" if flag else ""
            bu, bv = bu_max.truncated(r), bv_max.truncated(r)
            entry["sigma_u" + suffix] = bu.singular_values[:50].tolist()
            if not flag:
                entry["sigma_v"] = bv.singular_values[:50].tolist()
            deim = None
            if deim_max is not None:
                deim = deim_max.truncated(cfg.deim_mult * r)
                entry["cond_interp" + suffix] = deim.cond
                _write_json(
                    out / f"deim_indices{suffix}_r{r}.json",
                    {"indices": deim.indices.tolist(), "cond": deim.cond},
                )
            for variant in variants:
                if variant.shifted == flag:
                    dm = deim if variant.kind == "sp-deim" else None
                    save_rom(build_rom(variant, bu, bv, fom, deim=dm),
                             out / f"rom_{variant.tag}_r{r}.bin")
        log[f"r{r}"] = entry
    _write_json(out / "offline_log.json", log)
    return log


_TIMING_REPEATS = 3


def _online_run(cfg, model, fom_traj, z0, fom_series):
    """Integrate `model` from the reduced coordinates of z0 and measure the
    run against the full-order trajectory and energy series.

    The integration is deterministic, so its two repeats serve only the
    timing: `online_seconds` is the least of the three times.  The first
    run runs alone, so that one timed run has the machine to itself.  Two
    worker threads then run the two repeats at the same time, each in the
    compiled loop, which releases the GIL, with its own window and work
    array, while the main thread takes the first run's energy series,
    then the rows of its energy CSV, then `e_inf`.  `e_inf` queues one
    more task on the pool, which claims blocks beside the main thread
    once a worker has finished its repeat (see `metrics.e_inf`): the
    rows, pure Python under the GIL, come first, while the repeats still
    hold both cores, so that a freed core finds `e_inf` left.  The
    pool's shutdown joins the workers before the times are read or a
    failure propagates.  Returns the report, the reduced trajectory and
    the CSV rows (`series_rows`) of the energy series."""
    icfg = cfg.integrator_config()
    dx = cfg.wave_config().dx
    coeffs0 = model.initial_coefficients(z0)

    def run():
        return model.integrate(coeffs0, icfg)

    def repeat():
        return time_online(run)[1]

    rom_traj, seconds = _timed_run(run, f"{model.tag} r={model.r_u}")
    with ThreadPoolExecutor(_TIMING_REPEATS - 1) as pool:
        repeats = [pool.submit(repeat) for _ in range(_TIMING_REPEATS - 1)]
        series, offset, drift = hamiltonian_series(model, rom_traj, dx, fom_series)
        rows = series_rows(rom_traj.times, series)
        error = e_inf(fom_traj, rom_traj, model, pool)
    seconds = min(seconds, *(again.result() for again in repeats))
    report = RunReport(
        variant=model.tag,
        r=model.r_u,
        s=model.s,
        e_inf=error,
        h_offset_max=offset,
        h_drift_max=drift,
        online_seconds=seconds,
        steps=rom_traj.steps,
        picard_avg_iters=float(np.mean(rom_traj.picard_iters)) if rom_traj.steps else 0.0,
    )
    return report, rom_traj, rows


def _write_report(out, report, rows):
    """Write the report, then its energy series, `rows` of `series_rows`:
    a report that is not finite fails before either file is written."""
    name = f"{report.variant}_r{report.r}"
    _write_json(out / f"report_{name}.json", asdict(report))
    write_series_rows(out / f"energy_{name}.csv", rows)


def _online_stage(cfg, rom_paths, traj_path=None):
    """Load every artifact, then the full-order trajectory and the energy
    series that `fom` wrote beside it; integrate each model against them
    and write its report.  Returns the reports."""
    wcfg = cfg.wave_config()
    fom = assemble_wave_fom(wcfg)
    try:
        models = [load_rom(path, fom) for path in rom_paths]
    except ValueError as exc:  # an artifact was built for another n
        raise ConfigError(str(exc)) from None
    traj_path = _fom_trajectory_path(cfg, traj_path)
    # e_inf reads the full-order states one block at a time
    with open_trajectory(traj_path) as fom_traj:
        _check_fom_trajectory(cfg, fom_traj)
        fom_series = read_series_csv(traj_path.with_name("fom_energy.csv"), fom_traj.times)
        # the configured system must be the one that wrote the trajectory:
        # its energy of the first state (c and length enter through A and
        # dx) is the series' first value, up to the rounding of the stacked
        # sums
        [z0] = fom_traj.rows([0])
        h0 = wcfg.dx * float(fom.energy(z0))
        if not math.isclose(h0, float(fom_series[0]), rel_tol=1e-12):
            raise ConfigError(
                f"the configured system gives the trajectory's initial state the energy "
                f"H*dx = {h0!r}, but fom_energy.csv starts at {float(fom_series[0])!r}: "
                "the trajectory was run with another wave speed or domain length"
            )
        out = Path(cfg.out)
        out.mkdir(parents=True, exist_ok=True)
        reports = []
        for model in models:
            report, _, rows = _online_run(cfg, model, fom_traj, z0, fom_series)
            _write_report(out, report, rows)
            reports.append(report)
    return reports


def cmd_online(cfg: PipelineConfig, rom_path, traj_path=None) -> RunReport:
    """Integrate one stored reduced model and write its report."""
    return _online_stage(cfg, [rom_path], traj_path)[0]


def _render_table(reports, cfg, fom_summary):
    lines = [
        f"full-order reference: H*dx = {fom_summary['h_dx']:.4e}, "
        f"{fom_summary['steps']} steps, {fom_summary['online_seconds']:.1f} s"
    ]
    width = 12
    for r in cfg.r_list:
        rows = [rep for rep in reports if rep.r == r]
        header = f"{'r=' + str(r):<22}" + "".join(
            f"{rep.variant:>{width}}" for rep in rows
        )
        e_row = f"{'E_inf':<22}" + "".join(
            f"{rep.e_inf:>{width}.3e}" for rep in rows
        )
        h_row = f"{'max|Hr.dx - H.dx|':<22}" + "".join(
            f"{rep.h_offset_max:>{width}.3e}" for rep in rows
        )
        t_row = f"{'t_cpu (s)':<22}" + "".join(
            f"{rep.online_seconds:>{width}.3f}" for rep in rows
        )
        lines += ["", header, e_row, h_row, t_row]
    return "\n".join(lines) + "\n"


def cmd_reproduce(cfg: PipelineConfig) -> dict:
    """Full pipeline: full-order run, offline stage, every reduced run."""
    out = Path(cfg.out)
    fom_summary = cmd_fom(cfg)
    cmd_offline(cfg)
    reports = _online_stage(
        cfg, [out / f"rom_{tag}_r{r}.bin" for r in cfg.r_list for tag in cfg.variants]
    )
    table = _render_table(reports, cfg, fom_summary)
    (out / "table.txt").write_text(table)
    payload = {
        "config": cfg.benchmark_dict(),
        "fom": fom_summary,
        "runs": [asdict(rep) for rep in reports],
    }
    _write_json(out / "reproduce.json", payload)
    print(table, end="")
    return payload


# ---------------------------------------------------------------------------
# Argument parsing and entry point.


def _add_common_flags(parser):
    parser.add_argument("--config", help="key=value configuration file")
    for key, (_, doc) in _CONFIG_PARSERS.items():
        parser.add_argument(_flag(key), dest=key, help=doc)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hamrom",
        description="structure-preserving reduced-order models for the "
        "nonlinear-wave benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("fom", "run the full-order model"),
        ("offline", "build bases and reduced-model artifacts"),
        ("online", "integrate one reduced model"),
        ("reproduce", "run the whole benchmark pipeline"),
    ):
        p = sub.add_parser(name, help=doc)
        _add_common_flags(p)
        if name in ("offline", "online"):
            p.add_argument("--traj", help="full-order trajectory file (online also "
                           "reads the fom_energy.csv beside it)")
        if name == "online":
            p.add_argument("--rom", required=True, help="reduced-model artifact")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        if args.command == "fom":
            cmd_fom(cfg)
        elif args.command == "offline":
            cmd_offline(cfg, traj_path=args.traj)
        elif args.command == "online":
            cmd_online(cfg, args.rom, traj_path=args.traj)
        else:
            cmd_reproduce(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        PicardDivergenceError,
        RankDeficientError,
        np.linalg.LinAlgError,
        FloatingPointError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, FileFormatError) as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
