"""Workload definitions shared by the orchestrator and its worker processes.

Stdlib only: the orchestrator imports this module without importing the
program under test.  Every size and rate here is chosen for a 2-core host.
"""

from __future__ import annotations

import copy

#: The config every decoded workload starts from: the repo's
#: ``examples/configs/memory_d3.json`` at distance 5 (paper noise with the
#: leakage ratio 1.0 that makes leakage floods, and therefore large
#: syndromes, common).  Execution knobs slated for deletion (``fused``,
#: ``rng_prefetch``) are deliberately absent so each workload keeps
#: measuring the default path.
DECODED_BASE = {
    "name": "perfbench_decode",
    "code": {"name": "surface", "distance": 5},
    "noise": {"preset": "paper", "p": 1.5e-3, "leakage_ratio": 1.0},
    "policy": {"name": "gladiator+m"},
    "decoder": {"name": "matching"},
    "execution": {"rounds": 20, "decoded": True},
}

#: The realtime tuning of the decoded config: 4-round windows committing
#: one round, exact matching only up to 8 fired detectors.
WINDOWED = {
    "execution.window_rounds": 4,
    "execution.commit_rounds": 1,
    "decoder.max_exact_nodes": 8,
}

#: The six closed-loop (syndrome-speculating) policies of the DLP sweep.
CLOSED_LOOP_POLICIES = [
    "eraser",
    "eraser+m",
    "gladiator",
    "gladiator+m",
    "gladiator-d",
    "gladiator-d+m",
]

SWEEP_AXES = {"code.distance": [5, 7], "policy.name": CLOSED_LOOP_POLICIES}
SWEEP_UNITS = len(SWEEP_AXES["code.distance"]) * len(SWEEP_AXES["policy.name"])
#: Pool size of the sweep workload.
SWEEP_WORKERS = 2

#: Open-loop served streams.  The generator opens one stream every
#: ``1 / stream_rate`` seconds and sends one round every ``round_cadence_s``;
#: a stream meets its SLO when its RESULT arrives at most ``window_rounds``
#: round periods after its FINAL was due.  At 30 streams/s the server is
#: about a third busy, so the lag shows thread hops rather than queueing; at
#: 50 streams/s the run-to-run spread of every lag percentile tripled on a
#: 2-core host.  ``bursts`` closed bursts of ``burst_streams`` streams
#: (the server's per-tenant admission limit) measure the served capacity; ``checked_streams`` streams are compared
#: with the in-process service.
SERVE = {
    "code": {"family": "surface", "distance": 3},
    "noise": {"p": 1e-3, "leakage_ratio": 1.0},
    "policy": "gladiator+m",
    "shots": 10,
    "rounds": 16,
    "window_rounds": 4,
    "stream_rate": 30.0,
    "round_cadence_s": 0.005,
    "warmup_s": 1.5,
    "bursts": 9,
    "burst_streams": 64,
    "checked_streams": 64,
}

WORKLOADS = {
    "decode_offline": {
        "kind": "batch",
        "config": DECODED_BASE,
        "job_shots": 25,
        "traced_jobs": 10,
    },
    "windowed_sweep": {
        "kind": "sweep",
        "config": DECODED_BASE,
        "overrides": {**WINDOWED, "execution.workers": SWEEP_WORKERS},
        "job_shots": 150,
        "traced_jobs": 3,
    },
    "serve_open_loop": {"kind": "serve"},
}


def job_config(workload: str, seed: int) -> dict:
    """The plain-dict ExperimentConfig of one job of a batch workload."""
    spec = WORKLOADS[workload]
    config = copy.deepcopy(spec["config"])
    config["execution"]["shots"] = spec["job_shots"]
    config["execution"]["seed"] = seed
    for path, value in spec.get("overrides", {}).items():
        section, key = path.split(".")
        config[section][key] = value
    return config


def job_seed(seed: int, index: int) -> int:
    """Seed of job ``index`` in a run with benchmark seed ``seed``."""
    return (seed * 1_000_003 + 7919 * index) % (2**31 - 1)
