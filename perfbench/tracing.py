"""Benchmark-side tracing: spans around calls into each layer's public API.

Nothing here touches ``src/``.  :func:`install` replaces public functions
and methods of the running program with timing wrappers, so a traced run
records one span per call at each layer boundary while the untraced runs
execute the program unmodified.  Spans are recorded into a
``repro.obs.trace.Tracer`` (not activated, so the program's own spans stay
off) and kept in memory; sweep pool workers inherit the wrappers through
``fork`` and append their events to one file per pid, which
:meth:`Recorder.merge_workers` folds back in.  Nesting is recovered from
interval containment per process and thread, as trace viewers do.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from pathlib import Path

from repro.obs.metrics import METRICS
from repro.obs.trace import Tracer

PHASES = ("noise", "cnot_layers", "measure", "speculate", "bookkeeping")


class Recorder:
    """The traced spans of one process and, once merged, of its pool workers."""

    def __init__(self, worker_dir: Path | None = None) -> None:
        self.tracer = Tracer()
        self.phase_totals: list[dict[str, int]] = []
        self.sim_shot_rounds = 0
        self.worker_dir = worker_dir
        #: Trace events and metric counters that pool workers recorded.
        self.worker_events: list[dict] = []
        self.worker_counters: dict[str, float] = {}
        self._parent_pid = os.getpid()
        os.register_at_fork(after_in_child=self._reset_in_child)

    def _reset_in_child(self) -> None:
        origin = self.tracer.t0_ns
        self.tracer = Tracer()
        self.tracer.t0_ns = origin  # one time axis for every process
        self.phase_totals, self.sim_shot_rounds = [], 0
        METRICS.reset()  # counts copied from the parent are the parent's

    # ------------------------------------------------------------------ #
    def timed(self, name: str, function):
        """``function`` wrapped in a span called ``name``."""

        def wrapper(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                return function(*args, **kwargs)
            finally:
                self.tracer.complete_ns(name, start, time.perf_counter_ns())

        wrapper.__wrapped__ = function
        return wrapper

    def wrap(self, owner, attribute: str, name: str) -> None:
        setattr(owner, attribute, self.timed(name, getattr(owner, attribute)))

    def flush_worker(self) -> None:
        """Append this pool worker's events to its per-pid file, then forget them."""
        if self.worker_dir is None or os.getpid() == self._parent_pid:
            return
        counters = {k: v for k, v in METRICS.snapshot().items() if isinstance(v, (int, float))}
        record = {
            "events": self.tracer.events(),
            "phases": self.phase_totals,
            "shot_rounds": self.sim_shot_rounds,
            "counters": counters,
        }
        path = self.worker_dir / f"spans-{os.getpid()}.jsonl"
        with path.open("a") as handle:
            handle.write(json.dumps(record) + "\n")
        self._reset_in_child()

    def merge_workers(self) -> None:
        """Fold every worker's span file into this recorder."""
        if self.worker_dir is None:
            return
        for path in sorted(self.worker_dir.glob("spans-*.jsonl")):
            for line in path.read_text().splitlines():
                record = json.loads(line)
                self.worker_events.extend(record["events"])
                self.phase_totals.extend(record["phases"])
                self.sim_shot_rounds += record["shot_rounds"]
                for name, value in record["counters"].items():
                    self.worker_counters[name] = self.worker_counters.get(name, 0) + value

    def events(self) -> list[dict]:
        """Complete events of this process and every merged worker."""
        return [*self.tracer.events(), *self.worker_events]

    def write_chrome(self, path: Path) -> None:
        """Write every process's spans as one Chrome trace, a lane per pid."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": self.events(), "displayTimeUnit": "ms"}))


def nest(events: list[dict]) -> list[int | None]:
    """The index of each event's innermost enclosing event on its own
    process and thread, or ``None``, from interval containment."""
    parents: list[int | None] = [None] * len(events)
    order = sorted(
        range(len(events)),
        key=lambda i: (events[i]["pid"], events[i]["tid"], events[i]["ts"], -events[i]["dur"]),
    )
    stack: list[int] = []
    for index in order:
        event = events[index]
        while stack:
            top = events[stack[-1]]
            inside = (top["pid"], top["tid"]) == (event["pid"], event["tid"]) and (
                event["ts"] + event["dur"] <= top["ts"] + top["dur"] + 1e-3  # 1 ns slack
            )
            if inside:
                break
            stack.pop()
        parents[index] = stack[-1] if stack else None
        stack.append(index)
    return parents


def install(recorder: Recorder) -> None:
    """Wrap the public entry points of every layer the workloads cross."""
    import networkx

    import repro.api.session as session_module
    import repro.decoders.matching as matching_module
    import repro.sweeps.executor as executor_module
    from repro.api import Session
    from repro.decoders import DetectorGraph
    from repro.decoders.base import DecoderBase
    from repro.realtime import WindowedDecoder
    from repro.sim import LeakageSimulator
    from repro.sweeps import SweepExecutor

    for builder in ("build_code", "build_noise", "build_policy", "build_experiment"):
        recorder.wrap(session_module, builder, "api.build")
    recorder.wrap(Session, "work_units", "sweeps.plan")
    recorder.wrap(SweepExecutor, "run_units", "sweeps.run_units")

    shard = recorder.timed("sweeps.shard", executor_module.run_shard)

    def run_shard(*args, **kwargs):
        try:
            return shard(*args, **kwargs)
        finally:
            recorder.flush_worker()

    executor_module.run_shard = run_shard

    init = LeakageSimulator.__init__

    def simulator_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        recorder.phase_totals.append(self.enable_phase_timing())

    LeakageSimulator.__init__ = simulator_init
    run = recorder.timed("sim.run", LeakageSimulator.run)

    def simulator_run(self, shots, rounds):
        recorder.sim_shot_rounds += shots * rounds
        return run(self, shots, rounds)

    LeakageSimulator.run = simulator_run

    recorder.wrap(DetectorGraph, "__init__", "decoders.graph_build")
    # The edge list and weight matrix are built lazily, on first use.
    for lazy in ("edges", "sparse_weights"):
        cached = DetectorGraph.__dict__[lazy]
        cached.func = recorder.timed("decoders.graph_build", cached.func)
    recorder.wrap(DecoderBase, "decode_batch", "decoders.decode")
    recorder.wrap(DecoderBase, "decode_edges_unique", "decoders.decode")
    recorder.wrap(WindowedDecoder, "decode_batch", "realtime.window_decode")

    class _Networkx:
        """``networkx`` as ``repro.decoders.matching`` sees it, blossom timed."""

        def __getattr__(self, name):
            return getattr(networkx, name)

    proxy = _Networkx()
    proxy.max_weight_matching = recorder.timed(
        "decoders.blossom", networkx.max_weight_matching
    )
    matching_module.nx = proxy


def layer_metrics(recorder: Recorder, pool_size: int, counters: dict) -> dict[str, float]:
    """Per-layer totals, self times and ratios of one traced phase."""
    events = recorder.events()
    parents = nest(events)
    total = defaultdict(float)
    count = defaultdict(int)
    child_time = defaultdict(float)
    for event, parent in zip(events, parents):
        total[event["name"]] += event["dur"] * 1e-6
        count[event["name"]] += 1
        if parent is not None:
            child_time[parent] += event["dur"] * 1e-6
    self_time = defaultdict(float)
    windows = 0
    for index, (event, parent) in enumerate(zip(events, parents)):
        self_time[event["name"]] += event["dur"] * 1e-6 - child_time[index]
        if event["name"] == "decoders.decode" and parent is not None:
            windows += events[parent]["name"] == "realtime.window_decode"

    jobs = [i for i, event in enumerate(events) if event["name"] == "job"]
    job_wall = sum(events[i]["dur"] * 1e-6 for i in jobs)
    covered = sum(child_time[i] for i in jobs)

    phases = {phase: 0 for phase in PHASES}
    for totals in recorder.phase_totals:
        for phase in PHASES:
            phases[phase] += totals.get(phase, 0)

    shard_busy = total["sweeps.shard"]
    pool_wall = total["sweeps.run_units"]

    unique = counters.get("decode.batch.unique", 0)
    shots = counters.get("decode.batch.shots", 0)
    hits = counters.get("decode.cache.hits", 0)
    lookups = hits + counters.get("decode.cache.misses", 0)
    metrics = {
        "decoders.blossom_s": total["decoders.blossom"],
        "decoders.blossom_calls": count["decoders.blossom"],
        "decoders.decode_s": total["decoders.decode"],
        "decoders.graph_build_s": total["decoders.graph_build"],
        "decoders.dedup_ratio": 1.0 - unique / shots if shots else 0.0,
        "decoders.cache_hit_rate": hits / lookups if lookups else 0.0,
        "decoders.greedy_share": (
            counters.get("decode.matching.greedy_fallbacks", 0) / unique if unique else 0.0
        ),
        "sim.run_s": total["sim.run"],
        "core.speculate_ns_per_shot_round": (
            phases["speculate"] / recorder.sim_shot_rounds if recorder.sim_shot_rounds else 0.0
        ),
        "realtime.window_decode_s": self_time["realtime.window_decode"],
        "realtime.windows": windows,
        "sweeps.plan_s": total["sweeps.plan"],
        "sweeps.run_units_s": pool_wall,
        "sweeps.worker_busy_share": (
            shard_busy / (pool_size * pool_wall) if pool_wall and pool_size else 0.0
        ),
        "trace.attributed_fraction": covered / job_wall if job_wall else 0.0,
    }
    for phase in PHASES:
        metrics[f"sim.phase.{phase}_s"] = phases[phase] * 1e-9
    return metrics
