"""Span and counter recorder for the traced benchmark run.

The recorder measures the package from outside: `install` replaces public
names in the `hamrom.cli` namespace with timing wrappers and patches
`ReducedModel.make_rhs`, and the returned function undoes both.  Nothing
in the package itself is modified.

* Call-level work gets spans (name, start, end, parent span, request id).
  A request is one CLI command or one sweep query; the spans of the public
  calls made while serving it are its descendants.
* The right-hand-side closures run 1e5-1e6 times per command, so they get
  counters (call count plus summed time) instead of spans.
* Picard iteration counts come from `Trajectory.picard_iters`; the
  nonlinearity evaluation counts come from the public
  `make_rhs(g=EvalCounter(...))` hook.

Spans stay in memory; `write_jsonl` writes them out when the run ends.
"""

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# Public names of the `hamrom.cli` namespace that get spans, with the layer
# (package module) each belongs to.
SPANNED = {
    "assemble_wave_fom": "wave",
    "make_wave_energy": "wave",
    "make_wave_rhs": "wave",
    "initial_state": "wave",
    "integrate": "integrator",
    "save_trajectory": "integrator",
    "load_trajectory": "integrator",
    "collect": "snapshots",
    "shift": "snapshots",
    "compute_pod": "pod",
    "save_basis": "pod",
    "build_deim": "deim",
    "build_rom": "rom",
    "save_rom": "rom",
    "load_rom": "rom",
    "e_inf": "metrics",
    "hamiltonian_series": "metrics",
    "energy_series_of_states": "metrics",
    "write_series_csv": "metrics",
    "cmd_fom": "cli",
    "cmd_offline": "cli",
    "cmd_online": "cli",
}

_TRAJ_HEADER_BYTES = 40  # struct "<8sIQQdd" of the HRTRAJ01 container


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._request = None
        self._next_request = 0
        # counter key -> [calls, seconds]
        self.counters = defaultdict(lambda: [0, 0.0])
        # rhs closure -> (counter key, integrate owner: "fom" or a variant tag)
        self._closures = {}
        # (variant tag, rank) -> list of EvalCounter
        self.eval_counters = defaultdict(list)
        # owner -> [iterations, steps, max iterations per step, self seconds]
        self.picard = defaultdict(lambda: [0, 0, 0, 0.0])
        # variant tag -> [hamiltonian_series seconds, states evaluated]
        self.energy = defaultdict(lambda: [0.0, 0])
        self.columns = 0
        self.traj_bytes = 0
        self.artifact_bytes = 0

    @contextmanager
    def span(self, name):
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "request": self._request,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def request(self, name):
        """Top-level span whose id every nested span shares as request id."""
        self._request = self._next_request
        self._next_request += 1
        try:
            with self.span(name) as record:
                yield record
        finally:
            self._request = None

    def counted(self, fn, key, owner):
        """Closure that counts calls of fn and sums their time under key."""
        acc = self.counters[key]
        clock = time.perf_counter

        def wrapper(z):
            start = clock()
            out = fn(z)
            acc[1] += clock() - start
            acc[0] += 1
            return out

        self._closures[wrapper] = (key, owner)
        return wrapper

    # -- derived figures -------------------------------------------------

    def durations(self, name):
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, name):
        return float(sum(self.durations(name)))

    def self_time(self, name):
        """Summed duration of the named spans minus their direct children."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        return float(
            sum(
                s["end"] - s["start"] - child_time[s["id"]]
                for s in self.spans
                if s["name"] == name
            )
        )

    def write_jsonl(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")


def install(tracer, cli, rom_module, eval_counter_cls):
    """Patch the CLI namespace and ReducedModel.make_rhs; returns an undo."""
    originals = {name: getattr(cli, name) for name in SPANNED}
    model_cls = rom_module.ReducedModel
    original_make_rhs = model_cls.make_rhs

    def spanned(name, fn):
        label = f"{SPANNED[name]}.{name}"

        def wrapper(*args, **kwargs):
            with tracer.span(label):
                return fn(*args, **kwargs)

        return wrapper

    spans = {name: spanned(name, fn) for name, fn in originals.items()}

    # Wrappers that also record counts around the spanned call.
    def make_wave_rhs(*args, **kwargs):
        f = spans["make_wave_rhs"](*args, **kwargs)
        return tracer.counted(f, "wave.rhs", "fom")

    def integrate(f, z0, config, observer=None):
        rhs_key, owner = tracer._closures.get(f, (None, "other"))
        acc = tracer.counters[rhs_key] if rhs_key else [0, 0.0]
        rhs_before = acc[1]
        with tracer.span("integrator.integrate") as record:
            traj = originals["integrate"](f, z0, config, observer)
        elapsed = record["end"] - record["start"]
        iters = traj.picard_iters
        stats = tracer.picard[owner]
        stats[0] += int(np.sum(iters))
        stats[1] += int(iters.shape[0])
        stats[2] = max(stats[2], int(np.max(iters)) if iters.size else 0)
        stats[3] += elapsed - (acc[1] - rhs_before)
        return traj

    def save_trajectory(traj, path, dt=None):
        spans["save_trajectory"](traj, path, dt=dt)
        tracer.traj_bytes += _TRAJ_HEADER_BYTES + traj.states.size * 8

    def collect(*args, **kwargs):
        snaps = spans["collect"](*args, **kwargs)
        tracer.columns += int(snaps.count)
        return snaps

    def save_rom(model, path):
        spans["save_rom"](model, path)
        tracer.artifact_bytes += os.path.getsize(path)

    def hamiltonian_series(model, rom_traj, *args, **kwargs):
        start = time.perf_counter()
        result = spans["hamiltonian_series"](model, rom_traj, *args, **kwargs)
        acc = tracer.energy[model.tag]
        acc[0] += time.perf_counter() - start
        acc[1] += len(rom_traj)
        return result

    def make_rhs(self, g=None):
        if g is None:
            g = eval_counter_cls(self.g_fn)
            tracer.eval_counters[(self.tag, self.r_u)].append(g)
        f = original_make_rhs(self, g=g)
        return tracer.counted(f, f"rom.rhs.{self.tag}", self.tag)

    patches = dict(
        spans,
        make_wave_rhs=make_wave_rhs,
        integrate=integrate,
        save_trajectory=save_trajectory,
        collect=collect,
        save_rom=save_rom,
        hamiltonian_series=hamiltonian_series,
    )
    for name, fn in patches.items():
        setattr(cli, name, fn)
    model_cls.make_rhs = make_rhs

    def undo():
        for name, fn in originals.items():
            setattr(cli, name, fn)
        model_cls.make_rhs = original_make_rhs

    return undo


def layer_metrics(tracer, variants, ranks, cond_interp, overhead_s):
    """Per-layer figures of a traced timed section, keyed by metric name."""
    tr = tracer
    m = {}

    def per_call_us(key):
        calls, seconds = tr.counters.get(key, (0, 0.0))
        return calls, (1e6 * seconds / calls if calls else 0.0)

    m["wave.rhs_calls"], m["wave.rhs_us"] = per_call_us("wave.rhs")
    m["wave.assemble_calls"] = len(tr.durations("wave.assemble_wave_fom"))
    m["wave.assemble_s"] = tr.total("wave.assemble_wave_fom")
    m["wave.energy_build_s"] = tr.total("wave.make_wave_energy")

    iters, steps, most, fom_self = tr.picard.get("fom", (0, 0, 0, 0.0))
    m["integrator.fom_iters_per_step"] = iters / steps if steps else 0.0
    m["integrator.fom_iters_max"] = most
    m["integrator.fom_overhead_us_per_iter"] = 1e6 * fom_self / iters if iters else 0.0
    rom_iters = rom_self = 0
    for tag in variants:
        iters, steps, _, seconds = tr.picard.get(tag, (0, 0, 0, 0.0))
        m[f"integrator.rom_iters_per_step.{tag}"] = iters / steps if steps else 0.0
        rom_iters += iters
        rom_self += seconds
    m["integrator.rom_overhead_us_per_iter"] = (
        1e6 * rom_self / rom_iters if rom_iters else 0.0
    )
    m["integrator.integrate_calls"] = len(tr.durations("integrator.integrate"))
    m["integrator.traj_save_s"] = tr.total("integrator.save_trajectory")
    m["integrator.traj_load_s"] = tr.total("integrator.load_trajectory")
    m["integrator.traj_bytes"] = tr.traj_bytes

    m["snapshots.collect_s"] = tr.total("snapshots.collect") + tr.total("snapshots.shift")
    m["snapshots.columns"] = tr.columns
    m["pod.compute_calls"] = len(tr.durations("pod.compute_pod"))
    m["pod.compute_s"] = tr.total("pod.compute_pod")
    m["pod.save_s"] = tr.total("pod.save_basis")
    m["deim.build_s"] = tr.total("deim.build_deim")
    m["deim.cond_interp"] = cond_interp

    m["rom.build_s"] = tr.total("rom.build_rom")
    m["rom.save_s"] = tr.total("rom.save_rom")
    m["rom.load_s"] = tr.total("rom.load_rom")
    m["rom.artifact_bytes"] = tr.artifact_bytes
    for tag in variants:
        m[f"rom.rhs_calls.{tag}"], m[f"rom.rhs_us.{tag}"] = per_call_us(f"rom.rhs.{tag}")
        # Per-call evaluations of the variant's models at the workload's
        # ranks (not the warm-up's), summed over ranks.
        evals = 0
        for (owner, rank), counters in tr.eval_counters.items():
            calls = sum(c.calls for c in counters)
            scalars = sum(c.scalars for c in counters)
            if owner == tag and rank in ranks and calls:
                evals += scalars // calls if scalars % calls == 0 else scalars / calls
        m[f"rom.nonlinear_evals_per_call.{tag}"] = evals
        seconds, states = tr.energy.get(tag, (0.0, 0))
        m[f"rom.hamiltonian_us.{tag}"] = 1e6 * seconds / states if states else 0.0

    m["metrics.e_inf_s"] = tr.total("metrics.e_inf")
    m["metrics.hamiltonian_series_s"] = tr.total("metrics.hamiltonian_series")
    m["metrics.fom_energy_series_s"] = tr.total("metrics.energy_series_of_states")
    m["metrics.csv_write_s"] = tr.total("metrics.write_series_csv")
    for stage in ("fom", "offline", "online"):
        m[f"cli.self_s.{stage}"] = tr.self_time(f"cli.cmd_{stage}")
    m["trace.overhead_s"] = overhead_s
    return m
