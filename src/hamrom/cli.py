"""Command-line pipeline for the nonlinear-wave reduction benchmark.

Subcommands
-----------
fom        run the full-order model; write trajectory, energy CSV, summary
offline    collect snapshots, build bases/interpolation, write model files
online     integrate one reduced model and report its metrics
reproduce  full pipeline over all requested (variant, rank) pairs

Configuration comes from defaults, overridden by an optional key=value
config file (--config), overridden by command-line flags.  Exit codes:
0 success, 2 configuration error, 3 numerical failure, 4 I/O failure.
"""

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ._binio import FileFormatError
from .deim import build_deim

# The pipeline does not call `integrate`, `make_wave_rhs` or
# `make_wave_energy`; they stay in this namespace because perfbench calls
# them and its tracer wraps them.
from .integrator import (
    IntegratorConfig,
    PicardDivergenceError,
    integrate,  # noqa: F401
    integrate_steps,
    load_trajectory,
    save_trajectory,
)
from .metrics import (
    RunReport,
    e_inf,
    energy_series_of_states,
    hamiltonian_series,
    time_online,
    write_series_csv,
)
from .pod import RankDeficientError, compute_pod, save_basis
from .rom import VARIANT_TAGS, RomVariant, build_rom, load_rom, save_rom
from .snapshots import collect, shift
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
    return values


def _parse_variants(text):
    tags = tuple(part.strip() for part in str(text).split(",") if part.strip())
    for tag in tags:
        if tag not in VARIANT_TAGS:
            raise ConfigError(f"unknown variant {tag!r}; choose from {VARIANT_TAGS}")
    if not tags:
        raise ConfigError("variant list is empty")
    return tags


_CONFIG_PARSERS = {
    "n": int,
    "c_speed": float,
    "length": float,
    "dt": float,
    "t_final": float,
    "stride": int,
    "r": _parse_int_list,
    "deim_mult": int,
    "variants": _parse_variants,
    "picard_tol": float,
    "picard_max_iter": int,
    "out": str,
}

_KEY_TO_FIELD = {"r": "r_list"}


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
        try:
            parsed = _CONFIG_PARSERS[key](value)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
        overrides[_KEY_TO_FIELD.get(key, key)] = parsed
    return overrides


def build_config(args) -> PipelineConfig:
    values = {}
    if getattr(args, "config", None):
        values.update(parse_config_file(args.config))
    for key, parse in _CONFIG_PARSERS.items():
        value = getattr(args, key, None)
        if value is not None:
            values[_KEY_TO_FIELD.get(key, key)] = parse(value)
    try:
        cfg = PipelineConfig(**values)
        cfg.wave_config()
        cfg.integrator_config().step_count()
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.stride < 1 or cfg.deim_mult < 1:
        raise ConfigError("stride and deim_mult must be positive")
    return cfg


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


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
    """Run the full-order model (AVF steps) and persist trajectory + energy series."""
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    wcfg = cfg.wave_config()
    icfg = cfg.integrator_config()
    fom = assemble_wave_fom(wcfg)
    traj, seconds = _timed_run(
        lambda: integrate_steps(fom.make_step(icfg), initial_state(wcfg), icfg),
        "the full-order model",
    )
    series = energy_series_of_states(fom.energy, traj, wcfg.dx)
    save_trajectory(traj, out / "fom_trajectory.bin", dt=cfg.dt)
    write_series_csv(out / "fom_energy.csv", traj.times, series)
    summary = {
        "h_dx": float(series[0]),
        "h_dx_drift_max": float(np.max(np.abs(series - series[0]))),
        "steps": traj.steps,
        "online_seconds": seconds,
        "picard_avg_iters": float(np.mean(traj.picard_iters)) if traj.steps else 0.0,
    }
    _write_json(out / "fom_summary.json", summary)
    return summary


def _load_fom_trajectory(cfg, traj_path=None):
    """The full-order trajectory (default: cfg.out's), checked against 2n."""
    traj = load_trajectory(traj_path or Path(cfg.out) / "fom_trajectory.bin")
    if traj.dim != 2 * cfg.n:
        raise ConfigError(
            f"trajectory dimension {traj.dim} does not match 2*n = {2 * cfg.n}"
        )
    return traj


def _variant_needs(cfg):
    shifted = any(RomVariant.from_tag(t).shifted for t in cfg.variants)
    unshifted = any(not RomVariant.from_tag(t).shifted for t in cfg.variants)
    deim_shifted = "sp-deim-2" in cfg.variants
    deim_unshifted = "sp-deim-1" in cfg.variants
    return unshifted, shifted, deim_unshifted, deim_shifted


def cmd_offline(cfg: PipelineConfig, traj_path=None) -> dict:
    """Build bases, interpolation models, and reduced-model artifacts."""
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    n = cfg.n
    traj = _load_fom_trajectory(cfg, traj_path)
    fom = assemble_wave_fom(cfg.wave_config())
    G_fn = fom.G
    c_u = fom.c_u
    u0 = traj.states[0, :n]
    v0 = traj.states[0, n:]

    need_plain, need_shift, need_deim, need_deim_shift = _variant_needs(cfg)
    set_u = collect(traj, cfg.stride, lambda z: z[:n], "state-u")
    # each basis needs r (each interpolation basis s >= r) snapshot columns
    r_max = max(cfg.r_list)
    what, size = f"rank r={r_max}", r_max
    if need_deim or need_deim_shift:
        size = cfg.deim_mult * r_max
        what = f"interpolation size s={size} (r={r_max})"
    if size > min(n, set_u.count):
        raise ConfigError(
            f"{what} exceeds min(n, snapshot count) = min({n}, {set_u.count}): "
            f"stride {cfg.stride} samples {set_u.count} of {len(traj)} states"
        )
    set_v = collect(traj, cfg.stride, lambda z: z[n:], "state-v")
    set_g = collect(traj, cfg.stride, lambda z: G_fn(z[:n]), "nonlinear-G")
    set_u_shift = shift(set_u, u0) if need_shift else None
    set_v_shift = shift(set_v, v0) if need_shift else None
    set_g_shift = shift(set_g, G_fn(u0)) if need_deim_shift else None

    log = {"snapshots": {"count": int(set_u.count), "stride": cfg.stride}}
    for r in cfg.r_list:
        s = cfg.deim_mult * r
        entry = {}
        bases = {}
        if need_plain:
            bases[False] = (compute_pod(set_u, r), compute_pod(set_v, r))
            entry["sigma_u"] = bases[False][0].singular_values[:50].tolist()
            entry["sigma_v"] = bases[False][1].singular_values[:50].tolist()
        if need_shift:
            bases[True] = (compute_pod(set_u_shift, r), compute_pod(set_v_shift, r))
            entry["sigma_u_shifted"] = bases[True][0].singular_values[:50].tolist()
        deims = {}
        if need_deim:
            deims[False] = build_deim(compute_pod(set_g, s), c_u)
            entry["cond_interp"] = deims[False].cond
        if need_deim_shift:
            deims[True] = build_deim(compute_pod(set_g_shift, s), c_u)
            entry["cond_interp_shifted"] = deims[True].cond
        for flag, (bu, bv) in bases.items():
            suffix = "_shifted" if flag else ""
            save_basis(bu, out / f"basis_u{suffix}_r{r}.bin")
            save_basis(bv, out / f"basis_v{suffix}_r{r}.bin")
        for flag, dm in deims.items():
            suffix = "_shifted" if flag else ""
            _write_json(
                out / f"deim_indices{suffix}_r{r}.json",
                {"indices": dm.indices.tolist(), "cond": dm.cond},
            )
        for tag in cfg.variants:
            variant = RomVariant.from_tag(tag)
            model = build_rom(
                variant,
                bases[variant.shifted][0],
                bases[variant.shifted][1],
                fom,
                deim=deims.get(variant.shifted) if variant.kind == "sp-deim" else None,
            )
            save_rom(model, out / f"rom_{tag}_r{r}.bin")
        log[f"r{r}"] = entry
    _write_json(out / "offline_log.json", log)
    return log


_TIMING_REPEATS = 3


def _online_run(cfg, model, fom_traj, fom_series):
    icfg = cfg.integrator_config()
    dx = cfg.wave_config().dx
    coeffs0 = model.initial_coefficients(fom_traj.states[0])

    def run():
        return integrate_steps(model.make_step(icfg), coeffs0, icfg)

    # the integration is deterministic, so repeats only serve the timing:
    # the minimum is the least contention-polluted estimate of online cost
    rom_traj, seconds = _timed_run(run, f"{model.tag} r={model.r_u}")
    for _ in range(_TIMING_REPEATS - 1):
        _, again = time_online(run)
        seconds = min(seconds, again)
    series, offset, drift = hamiltonian_series(model, rom_traj, dx, fom_series)
    report = RunReport(
        variant=model.tag,
        r=model.r_u,
        s=model.s,
        e_inf=e_inf(fom_traj, rom_traj, model),
        h_offset_max=offset,
        h_drift_max=drift,
        online_seconds=seconds,
        steps=rom_traj.steps,
        picard_avg_iters=float(np.mean(rom_traj.picard_iters)) if rom_traj.steps else 0.0,
    )
    return report, rom_traj, series


def _write_report(out, report, times, series):
    name = f"{report.variant}_r{report.r}"
    with open(out / f"report_{name}.json", "w") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    write_series_csv(out / f"energy_{name}.csv", times, series)


def _online_stage(cfg, rom_paths, traj_path=None):
    """Load every artifact, then the full-order trajectory; integrate each
    model against it and write its report.  Returns the reports."""
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    wcfg = cfg.wave_config()
    fom = assemble_wave_fom(wcfg)
    try:
        models = [load_rom(path, fom) for path in rom_paths]
    except ValueError as exc:  # an artifact was built for another n
        raise ConfigError(str(exc)) from None
    fom_traj = _load_fom_trajectory(cfg, traj_path)
    fom_series = energy_series_of_states(fom.energy, fom_traj, wcfg.dx)
    reports = []
    for model in models:
        report, rom_traj, series = _online_run(cfg, model, fom_traj, fom_series)
        _write_report(out, report, rom_traj.times, series)
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
        if not rows:
            continue
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
        "runs": [json.loads(rep.to_json()) for rep in reports],
    }
    _write_json(out / "reproduce.json", payload)
    print(table, end="")
    return payload


# ---------------------------------------------------------------------------
# Argument parsing and entry point.


def _add_common_flags(parser):
    parser.add_argument("--config", help="key=value configuration file")
    parser.add_argument("--n", type=int, help="number of grid points")
    parser.add_argument("--c-speed", dest="c_speed", type=float, help="wave speed")
    parser.add_argument("--length", type=float, help="domain length")
    parser.add_argument("--dt", type=float, help="time step")
    parser.add_argument("--t-final", dest="t_final", type=float, help="final time")
    parser.add_argument("--stride", type=int, help="snapshot sampling stride")
    parser.add_argument("--r", help="comma-separated basis ranks")
    parser.add_argument("--deim-mult", dest="deim_mult", type=int,
                        help="interpolation size as a multiple of r")
    parser.add_argument("--variants", help="comma-separated model tags")
    parser.add_argument("--picard-tol", dest="picard_tol", type=float,
                        help="fixed-point update tolerance")
    parser.add_argument("--picard-max-iter", dest="picard_max_iter", type=int,
                        help="fixed-point iteration cap")
    parser.add_argument("--out", help="output directory")


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
            p.add_argument("--traj", help="full-order trajectory file")
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
    except (PicardDivergenceError, RankDeficientError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, FileFormatError) as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
