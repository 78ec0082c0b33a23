"""One benchmark workload, run in its own process by `run.py`.

Usage (normally through run.py, which sets PYTHONPATH and the BLAS thread
variables):

    python3 perfbench/workloads.py --workload reference --seed 1 \
        --seconds 10 --trace 0 --work .perfbench_work/x

The process sets up (import, warm-up, input generation), stamps the end of
set-up on the system-wide monotonic clock, runs the timed section, checks
the outputs and prints one JSON object as its last stdout line.  With
--setup-only it stops after set-up.  See README.md in this directory for
the workloads, the metrics and the checks.
"""

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from hamrom import cli, rom  # noqa: E402
from hamrom.integrator import Trajectory  # noqa: E402
from hamrom.metrics import EvalCounter  # noqa: E402
from tracer import Tracer, install, layer_metrics  # noqa: E402

VARIANTS = rom.VARIANT_TAGS
SP_TAGS = tuple(tag for tag in VARIANTS if tag != "g-rom")
RANKS = (10, 20)

# CLI flags of each workload's pipeline.  The sweep's offline stage is
# trained on t <= 10, which covers its queries (t <= 5) and keeps its
# set-up short enough to repeat.
FLAGS = {
    "reference": ["--n", "500", "--dt", "0.01", "--t-final", "50",
                  "--stride", "50", "--r", "10,20", "--deim-mult", "2"],
    "fine-grid": ["--n", "2000", "--dt", "0.0025", "--t-final", "2.5",
                  "--stride", "10", "--r", "10,20", "--deim-mult", "2"],
    "sweep": ["--n", "500", "--dt", "0.01", "--t-final", "10",
              "--stride", "10", "--r", "10,20", "--deim-mult", "2"],
}

# Stages a pipeline pass runs again at its end (writing identical files),
# so that their time is a median over several samples.  A single fom run
# (about 4 s at reference, 1.4 s at fine-grid) or reference offline run
# (0.2 s) varied by 10-20% between runs; fine-grid's 3 s offline run did not.
REPEATED_STAGES = {"reference": ("fom",) + ("offline",) * 7, "fine-grid": ("fom",)}
SWEEP_OFFLINE_RUNS = 5  # offline runs per sweep set-up; offline_s is their median

# Acceptance pins green when this benchmark was set (tests/test_acceptance.py).
H_DX_REFERENCE = 1.258e-1
E_INF_BANDS = {
    ("g-rom", 10): (1.6e-2, 6.6e-2),
    ("sp-pod-1", 20): (8.298e-3 / 2, 8.298e-3 * 2),
    ("sp-deim-2", 10): (3.490e-2 / 2, 3.490e-2 * 2),
    ("sp-deim-2", 20): (1.311e-2 / 2, 1.311e-2 * 2),
}
SHIFTED_OFFSET_MAX = 1e-9

# Sweep: many read-only queries against four stored models.
SWEEP_MODELS = tuple((tag, r) for tag in ("sp-pod-2", "sp-deim-2") for r in RANKS)
SWEEP_ROUNDS = 25  # one query per model per round: 100 queries per pass
SWEEP_T_FINAL = 5.0
SWEEP_ALPHA = (0.5, 1.5)
SWEEP_REFERENCE_EVERY = 20  # queries between runs of all models at alpha=1
# Largest scaled reduced-energy drift of a pass when this benchmark was set
# (at most 7.86e-7 over 33 seeds), and the multiple of it the check allows.
SWEEP_DRIFT_SEED = 7.8e-7
SWEEP_DRIFT_MULTIPLE = 4.0


# Host-speed calibration.  The machine's speed drifts by 10-40% over
# seconds to minutes (other work on the shared host), and medians within a
# run cannot remove drift slower than a run.  While a workload runs, a
# timer signal therefore interrupts it every SAMPLE_INTERVAL_S to run a
# fixed kernel that uses nothing of hamrom: small matrix-vector products
# and `np.sin` in an interpreter loop, like the integrator's Picard loop.
# An operation's nominal seconds are its raw seconds (without the kernel
# runs inside it) x CAL_NOMINAL_S / the kernel's mean time during the
# operation.  A change to the package does not move the kernel, so it
# moves a nominal time as it moves the raw time.
CAL_NOMINAL_S = 0.00033  # one kernel run on the host that set the benchmark
CAL_SIZE, CAL_STEPS = 60, 130
SAMPLE_INTERVAL_S = 0.02
RECENT_SAMPLES = 5  # for an operation too short to contain a sample

clock = time.perf_counter


class Stopwatch:
    """Times operations in nominal seconds (see CAL_NOMINAL_S)."""

    def __init__(self):
        self.matrix = np.random.default_rng(0).standard_normal((CAL_SIZE, CAL_SIZE)) / CAL_SIZE
        self.samples = []
        self.sampling_s = 0.0  # time spent in the signal handler
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def _sample(self, signum, frame):
        start = clock()
        x = np.ones(CAL_SIZE)
        for _ in range(CAL_STEPS):
            x = np.sin(self.matrix @ x)
        self.samples.append(clock() - start)
        self.sampling_s += clock() - start

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def time(self, fn, *args):
        """Run fn(*args); returns its result and its nominal seconds."""
        first, sampling = len(self.samples), self.sampling_s
        start = clock()
        out = fn(*args)
        elapsed = clock() - start - (self.sampling_s - sampling)
        during = self.samples[first:] or self.samples[-RECENT_SAMPLES:]
        return out, elapsed * CAL_NOMINAL_S / statistics.fmean(during)

    def scale(self):
        """Nominal seconds per raw second over all samples so far."""
        return CAL_NOMINAL_S / statistics.fmean(self.samples)


def monotonic():
    """System-wide clock, comparable with the launching process on Linux."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Checks:
    """Operations attempted and failed, with one report line per operation."""

    def __init__(self, watch):
        self.watch = watch
        self.attempted = 0
        self.failures = []
        self.lines = []

    def add(self, name, ok, detail):
        self.attempted += 1
        self.lines.append(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        if not ok:
            self.failures.append(name)

    def command(self, argv, label):
        """Run one CLI command in-process; returns its nominal seconds."""
        rc, elapsed = self.watch.time(cli.main, argv)
        self.add(f"command {label}", rc == 0, f"exit {rc}, {elapsed:.3f} nominal s")
        return elapsed


def request(tracer, name):
    return tracer.request(name) if tracer is not None else nullcontext()


def median(values):
    return float(statistics.median(values))


def percentile(values, q):
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


# ---------------------------------------------------------------------------
# Set-up.


def warm_up(work, n, columns, checks):
    """Pay one-time process costs before timing: lazy imports, the first
    LAPACK calls and the pipeline's code paths, on a tiny problem."""
    flags = ["--n", "40", "--t-final", "1", "--stride", "10", "--r", "2",
             "--out", str(work / "warm-up")]
    checks.command(["fom", *flags], "warm-up fom")
    checks.command(["offline", *flags], "warm-up offline")
    rom_path = work / "warm-up" / "rom_sp-deim-2_r2.bin"
    checks.command(["online", "--rom", str(rom_path), *flags], "warm-up online")
    rng = np.random.default_rng(0)
    np.linalg.svd(rng.standard_normal((n, columns)), full_matrices=False)


def project(model, z):
    """Reduced coefficients phi^T (z - ref) of a full state, block by block."""
    n = model.n
    return np.concatenate(
        [model.phi_u.T @ (z[:n] - model.u_ref), model.phi_v.T @ (z[n:] - model.v_ref)]
    )


def pipeline_config(flags):
    """The configuration the CLI builds from these flags."""
    return cli.build_config(cli.build_parser().parse_args(["fom", *flags]))


def setup_pipeline(workload, work, checks):
    flags = FLAGS[workload] + ["--out", str(work)]
    cfg = pipeline_config(flags)
    warm_up(work, cfg.n, 101, checks)
    return {"flags": flags, "out": work, "config": cfg,
            "repeated_stages": REPEATED_STAGES[workload]}


def setup_sweep(seed, work, checks):
    flags = FLAGS["sweep"] + ["--out", str(work)]
    cfg = pipeline_config(flags)
    warm_up(work, cfg.n, 101, checks)
    stages = {
        "fom_s": checks.command(["fom", *flags], "fom"),
        "offline_s": median([checks.command(["offline", *flags], f"offline {i}")
                             for i in range(SWEEP_OFFLINE_RUNS)]),
    }
    wcfg = cfg.wave_config()
    fom = cli.assemble_wave_fom(wcfg)
    energy = cli.make_wave_energy(wcfg)
    models = {
        (tag, r): cli.load_rom(work / f"rom_{tag}_r{r}.bin", fom, state_energy=energy)
        for tag in VARIANTS
        for r in RANKS
    }
    fom_traj = cli.load_trajectory(work / "fom_trajectory.bin")
    z0 = fom_traj.states[0]
    icfg = replace(cfg, t_final=SWEEP_T_FINAL).integrator_config()
    steps = icfg.step_count()
    # The program receives only generated coefficients phi^T(alpha z0 - ref):
    # ReducedModel.initial_coefficients returns zeros for shifted models
    # whatever state it is given, so it cannot serve alpha != 1.
    rng = np.random.default_rng(seed)
    plan = []
    for _ in range(SWEEP_ROUNDS):
        for key in SWEEP_MODELS:
            alpha = float(rng.uniform(*SWEEP_ALPHA))
            plan.append((key, alpha, project(models[key], alpha * z0)))
    ref_coeffs = {key: project(model, z0) for key, model in models.items()}
    worst = max(
        float(np.max(np.abs(ref_coeffs[key] - model.initial_coefficients(z0))))
        for key, model in models.items()
    )
    checks.add("sweep-inputs", worst <= 1e-12,
               f"harness projection at alpha=1 matches initial_coefficients "
               f"within {worst:.1e}")
    warm_cfg = replace(cfg, t_final=10 * cfg.dt).integrator_config()
    for key in SWEEP_MODELS:
        cli.integrate(models[key].make_rhs(), ref_coeffs[key], warm_cfg)
    return {
        "models": models,
        "plan": plan,
        "ref_coeffs": ref_coeffs,
        "icfg": icfg,
        "dx": wcfg.dx,
        "fom_head": Trajectory(fom_traj.states[: steps + 1], fom_traj.times[: steps + 1]),
        "stages": stages,
    }


# ---------------------------------------------------------------------------
# Timed passes.


def pipeline_pass(state, checks, tracer):
    """fom, offline and the 10 online commands, then REPEATED_STAGES.
    The pass's wall_s is the sum of its commands' nominal seconds."""
    flags, out = state["flags"], state["out"]
    result = {"online_s": dict.fromkeys(VARIANTS, 0.0), "queries": [], "wall_s": 0.0}

    def command(argv, label):
        with request(tracer, label):
            seconds = checks.command(argv + flags, label)
        result["wall_s"] += seconds
        return seconds

    stages = {"fom_s": [command(["fom"], "fom")], "offline_s": [command(["offline"], "offline")]}
    for r in RANKS:
        for tag in VARIANTS:
            rom_path = str(out / f"rom_{tag}_r{r}.bin")
            seconds = command(["online", "--rom", rom_path], f"online {tag} r{r}")
            result["online_s"][tag] += seconds
            result["queries"].append(seconds)
    for stage in state["repeated_stages"]:
        stages[f"{stage}_s"].append(command([stage], f"{stage} again"))
    result.update(stages)
    return result


def query(model, coeffs, icfg, dx):
    """One sweep query: integrate the model, then its energy series."""
    traj = cli.integrate(model.make_rhs(), coeffs, icfg)
    _, _, drift = cli.hamiltonian_series(model, traj, dx)
    return traj, drift


def sweep_pass(state, checks, tracer):
    """The plan's queries and the reference-state runs; the pass's wall_s
    is the sum of their nominal seconds."""
    icfg, dx = state["icfg"], state["dx"]
    result = {"online_s": dict.fromkeys(VARIANTS, 0.0), "queries": [], "drifts": []}
    state["ref_trajs"] = {}
    ref_seconds = {key: [] for key in state["models"]}
    for i, (key, alpha, coeffs) in enumerate(state["plan"]):
        if i % SWEEP_REFERENCE_EVERY == 0:
            sweep_reference_runs(state, checks.watch, ref_seconds, tracer)
        model = state["models"][key]
        try:
            with request(tracer, f"query {i}"):
                (traj, drift), seconds = checks.watch.time(query, model, coeffs, icfg, dx)
        except Exception as exc:  # a query that raises is a failed operation
            checks.add(f"query {i}", False, f"{key} alpha={alpha:.4f}: {exc!r}")
            continue
        finite = bool(np.all(np.isfinite(traj.states))) and np.isfinite(drift)
        checks.add(f"query {i}", finite, f"{key[0]} r{key[1]} alpha={alpha:.4f}")
        result["queries"].append(seconds)
        result["drifts"].append(drift)
    for (tag, _), values in ref_seconds.items():
        result["online_s"][tag] += median(values)
    result["wall_s"] = sum(result["queries"]) + sum(sum(v) for v in ref_seconds.values())
    return result


def sweep_reference_runs(state, watch, ref_seconds, tracer):
    """Query every stored model once from the reference state (alpha = 1).
    Spread over the pass, these queries give each model's online time as a
    median that a short burst of machine load cannot move."""
    for (tag, r), model in state["models"].items():
        with request(tracer, f"reference {tag} r{r}"):
            (traj, _), seconds = watch.time(
                query, model, state["ref_coeffs"][(tag, r)], state["icfg"], state["dx"]
            )
            ref_seconds[(tag, r)].append(seconds)
        state["ref_trajs"][(tag, r)] = traj


PASSES = {"reference": pipeline_pass, "fine-grid": pipeline_pass, "sweep": sweep_pass}


def timed_section(workload, state, checks, seconds, count=None, tracer=None):
    """Repeat the workload's pass until `seconds` have elapsed (at least
    once), or exactly `count` times."""
    passes = []
    start = clock()
    while True:
        passes.append(PASSES[workload](state, checks, tracer))
        if count is not None:
            if len(passes) >= count:
                return passes
        elif clock() - start >= seconds:
            return passes


# ---------------------------------------------------------------------------
# Checks and metrics after the timed section.


def read_reports(out):
    summary = json.loads((out / "fom_summary.json").read_text())
    reports = {
        (tag, r): json.loads((out / f"report_{tag}_r{r}.json").read_text())
        for tag in VARIANTS
        for r in RANKS
    }
    return summary, reports


def check_eval_counts(state, checks):
    """Nonlinearity evaluations per rhs call: s for sp-deim, n for sp-pod."""
    cfg = state["config"]
    wcfg = cfg.wave_config()
    fom = cli.assemble_wave_fom(wcfg)
    z0 = cli.initial_state(wcfg)
    short = replace(cfg, t_final=5 * cfg.dt).integrator_config()
    for tag in SP_TAGS:
        for r in RANKS:
            model = cli.load_rom(state["out"] / f"rom_{tag}_r{r}.bin", fom)
            counter = EvalCounter(np.sin)
            cli.integrate(model.make_rhs(g=counter), model.initial_coefficients(z0), short)
            expected = model.s if tag.startswith("sp-deim") else model.n
            per_call = counter.scalars / counter.calls
            checks.add(f"eval-counts[{tag}-{r}]", per_call == expected,
                       f"{per_call:g} evaluations per call, expected {expected}")


def check_pipeline(workload, state, checks, info):
    summary, reports = read_reports(state["out"])
    rel = abs(summary["h_dx"] - H_DX_REFERENCE) / H_DX_REFERENCE
    checks.add("fom-energy", rel <= 0.005,
               f"H*dx = {summary['h_dx']:.6e} (rel dev {rel:.2e}, bound 5e-3)")
    if workload == "reference":
        for (tag, r), (lo, hi) in E_INF_BANDS.items():
            value = reports[(tag, r)]["e_inf"]
            checks.add(f"einf-band[{tag}-{r}]", lo <= value <= hi,
                       f"E_inf = {value:.4e}, band [{lo:.3e}, {hi:.3e}]")
    for tag in VARIANTS:
        e10, e20 = reports[(tag, 10)]["e_inf"], reports[(tag, 20)]["e_inf"]
        checks.add(f"einf-order[{tag}]", e20 < e10, f"r=20 {e20:.4e} < r=10 {e10:.4e}")
    for tag in ("sp-pod-2", "sp-deim-2"):
        for r in RANKS:
            value = reports[(tag, r)]["h_offset_max"]
            checks.add(f"offset-shifted[{tag}-{r}]", value <= SHIFTED_OFFSET_MAX,
                       f"{value:.3e} vs bound {SHIFTED_OFFSET_MAX:.0e}")
    check_eval_counts(state, checks)
    # The three red-by-design acceptance criteria, reported as values only.
    info["fom-drift"] = summary["h_dx_drift_max"]
    info["sp-constancy"] = max(reports[(t, r)]["h_drift_max"] for t in SP_TAGS for r in RANKS)
    info["offset-unshifted[g-rom-20]"] = reports[("g-rom", 20)]["h_offset_max"]
    return {
        "e_inf_max": max(reports[(t, r)]["e_inf"] for t in SP_TAGS for r in RANKS),
        "h_drift_max": info["sp-constancy"],
    }


def check_sweep(state, passes, checks, info):
    drift = max(d for p in passes for d in p["drifts"])
    bound = SWEEP_DRIFT_MULTIPLE * SWEEP_DRIFT_SEED
    checks.add("sweep-drift", drift <= bound,
               f"max scaled drift {drift:.3e} vs {SWEEP_DRIFT_MULTIPLE:g} x seed "
               f"{SWEEP_DRIFT_SEED:.1e}")
    errors = {
        key: cli.e_inf(state["fom_head"], traj, state["models"][key])
        for key, traj in state["ref_trajs"].items()
    }
    info["e_inf_reference_state"] = {f"{t}-{r}": v for (t, r), v in errors.items()}
    return {
        "e_inf_max": max(v for (t, _), v in errors.items() if t in SP_TAGS),
        "h_drift_max": drift,
    }


def end_to_end(passes, setup_stages, values):
    metrics = {"wall_s": median([p["wall_s"] for p in passes])}
    if not setup_stages:
        metrics["fom_s"] = median([t for p in passes for t in p["fom_s"]])
        metrics["offline_s"] = median([t for p in passes for t in p["offline_s"]])
    for tag in VARIANTS:
        metrics[f"online_s.{tag}"] = median([p["online_s"][tag] for p in passes])
    queries = [q for p in passes for q in p["queries"]]
    metrics["query_s.p50"] = median(queries)
    metrics["query_s.p90"] = percentile(queries, 90)
    metrics.update(setup_stages)  # the sweep runs fom and offline in set-up
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics.update(values)
    return metrics


def cond_interp(out):
    log = json.loads((out / "offline_log.json").read_text())
    return max(
        value
        for entry in log.values()
        for key, value in entry.items()
        if key.startswith("cond_interp")
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(PASSES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="scratch directory")
    parser.add_argument("--trace-out", help="file for the recorded spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    checks = Checks(Stopwatch())
    # A traced run traces set-up as well, so that every layer reports the
    # work it did; on the sweep, full-order and offline work happen there.
    tracer = Tracer() if args.trace else None
    undo = install(tracer, cli, rom, EvalCounter) if tracer else None
    try:
        if args.workload == "sweep":
            state = setup_sweep(args.seed, work, checks)
        else:
            state = setup_pipeline(args.workload, work, checks)
    finally:
        if undo:
            undo()
    setup_end = monotonic()
    result = {"setup_end": setup_end, "setup_scale": checks.watch.scale(),
              "stages": state.get("stages", {})}
    if args.setup_only:
        checks.watch.stop()
        result.update(attempted=checks.attempted, failed=len(checks.failures))
        print(json.dumps(result))
        return 0

    if args.trace and "repeated_stages" in state:
        # A traced run times a pass twice and prints no stage medians, so
        # it skips the repeats and stays within the time limit.
        state["repeated_stages"] = ()
    passes = timed_section(args.workload, state, checks, args.seconds)
    if args.trace:
        undo = install(tracer, cli, rom, EvalCounter)
        try:
            traced = timed_section(args.workload, state, checks, 0, count=len(passes),
                                   tracer=tracer)
        finally:
            undo()
        overhead = sum(p["wall_s"] for p in traced) - sum(p["wall_s"] for p in passes)
        if args.trace_out:
            tracer.write_jsonl(args.trace_out)
        passes += traced
    checks.watch.stop()

    info = {}
    if args.workload == "sweep":
        values = check_sweep(state, passes, checks, info)
    else:
        values = check_pipeline(args.workload, state, checks, info)
    if args.trace:
        out = state.get("out", work)
        metrics = layer_metrics(tracer, VARIANTS, RANKS, cond_interp(out), overhead)
    else:
        metrics = end_to_end(passes, result["stages"], values)
    result.update(
        attempted=checks.attempted,
        failed=len(checks.failures),
        checks=checks.lines,
        info=info,
        env=dict(environment(), nominal_per_raw_s=checks.watch.scale(),
                 kernel_samples=len(checks.watch.samples)),
        passes=len(passes),
        metrics=metrics,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)  # on every path out
