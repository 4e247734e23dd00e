"""One fresh process of a batch workload (``decode_offline`` or ``windowed_sweep``).

The orchestrator (``run.py``) launches this script several times per run
to time set-up.  Each launch builds what a user's first call needs, prints
``READY`` and waits for one line on stdin: ``exit`` ends a set-up probe,
``run`` goes on to the timed jobs and the output checks, and the last
line printed is the process's JSON report.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402  (benchmark-local module)

from repro.api import ExperimentConfig, Session  # noqa: E402


def set_up(workload: str, seed: int) -> None:
    """Validate a job's config, build every component a job needs and load
    the C kernels (``run.py`` built them; nothing compiles here)."""
    from repro.decoders import _ckernels as decoder_kernels
    from repro.sim import _ckernels as sim_kernels

    session = Session(ExperimentConfig.from_dict(workloads.job_config(workload, seed)))
    session.experiment()
    if workloads.WORKLOADS[workload]["kind"] == "sweep":
        session.work_units(workloads.SWEEP_AXES)
    sim_kernels.available()
    decoder_kernels.available()


def run_job(workload: str, seed: int):
    """One user call; returns (result, shot_rounds)."""
    spec = workloads.WORKLOADS[workload]
    config = workloads.job_config(workload, seed)
    session = Session.from_config(config)
    shots, rounds = config["execution"]["shots"], config["execution"]["rounds"]
    if spec["kind"] == "sweep":
        rows = session.sweep(workloads.SWEEP_AXES)
        if len(rows) != workloads.SWEEP_UNITS or any(row["shots"] != shots for row in rows):
            raise RuntimeError(f"sweep returned {len(rows)} malformed rows")
        return rows, workloads.SWEEP_UNITS * shots * rounds
    result = session.run()
    if result.shots != shots or not 0 <= result.failures <= shots:
        raise RuntimeError(f"malformed result {result.summary()}")
    return result, shots * rounds


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest (pool worker) child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def timed_jobs(workload: str, seeds, deadline: float | None, recorder=None):
    """Run jobs back to back; returns per-job latencies, shot-rounds done,
    errors and results.

    A single-process job runs on each CPU in turn: on a shared 2-vCPU host
    the two cores' speeds differed by up to 29% for minutes at a time, so a
    job left where the scheduler put it made runs bimodal.  Sweep jobs are
    not pinned; their pool workers occupy every CPU.
    """
    latencies, work_done, errors, results = [], [], 0, []
    call = run_job if recorder is None else recorder.timed("job", run_job)
    cpus = sorted(os.sched_getaffinity(0))
    rotate = workloads.WORKLOADS[workload]["kind"] == "batch"
    for index, seed in enumerate(seeds):
        if deadline is not None and latencies and time.perf_counter() >= deadline:
            break
        if rotate:
            os.sched_setaffinity(0, {cpus[index % len(cpus)]})
        started = time.perf_counter()
        try:
            result, work = call(workload, seed)
        except Exception as exc:  # a failed user call is counted, not fatal
            print(f"job {seed} failed: {exc!r}", file=sys.stderr)
            errors += 1
            latencies.append(time.perf_counter() - started)
            continue
        latencies.append(time.perf_counter() - started)
        work_done.append(work)
        results.append((seed, result))
    os.sched_setaffinity(0, cpus)
    return latencies, work_done, errors, results


def check_outputs(workload: str, seed: int, results) -> tuple[int, int, list[str]]:
    """Check a completed job; returns (attempted, failed, notes).

    A sweep is checked twice over one seeded unit: re-run with
    ``workers=1`` it must give a bit-identical row, and its config run
    in-process must pass the decoded-run checks.
    """
    import checks

    spec = workloads.WORKLOADS[workload]
    check_seed = workloads.job_seed(seed, 10_000)
    if spec["kind"] != "sweep":
        return checks.check_decoded(lambda: run_job(workload, check_seed)[0], check_seed)
    job_seed, rows = results[0]
    index = seed % len(rows)
    row = rows[index]
    config = workloads.job_config(workload, job_seed)
    config["execution"]["workers"] = 1
    axes = {"code.distance": [row["distance"]], "policy.name": [row["policy_name"]]}
    (serial,) = Session.from_config(config).sweep(axes)
    same = checks.rows_identical(row, serial)
    config["code"]["distance"] = row["distance"]
    config["policy"]["name"] = row["policy_name"]
    attempted, failed, notes = checks.check_decoded(
        lambda: Session.from_config(config).run(), check_seed
    )
    if not same:
        notes.insert(0, f"unit {index} differs when serial")
    return attempted + 1, failed + int(not same), notes


def fingerprint() -> dict:
    """The program's side of the host fingerprint: the run manifest's
    platform, package versions and commit, plus which C kernels loaded."""
    from repro.decoders import _ckernels as decoder_kernels
    from repro.obs.manifest import build_manifest
    from repro.sim import _ckernels as sim_kernels

    manifest = build_manifest()
    return {
        **manifest["platform"],
        **manifest["packages"],
        "commit": (manifest["git"] or {}).get("sha"),
        "sim_ckernels": sim_kernels.available(),
        "decoder_ckernels": decoder_kernels.available(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--span-dir", default=None)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    started = time.perf_counter()
    set_up(args.workload, workloads.job_seed(args.seed, 0))
    api_build_s = time.perf_counter() - started
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "run":
        return 0

    spec = workloads.WORKLOADS[args.workload]
    seeds = (workloads.job_seed(args.seed, index) for index in range(1, 10**6))
    report: dict = {}
    if not args.trace:
        deadline = time.perf_counter() + args.seconds
        latencies, work, errors, results = timed_jobs(args.workload, seeds, deadline)
        report["metrics"] = {
            "shot_rounds_per_s": sum(work) / sum(latencies),
            "lag_p50_ms": 1e3 * _percentile(latencies, 50),
            "slo_attainment": (len(latencies) - errors) / len(latencies),
            "peak_rss_mb": peak_rss_mb(),
        }
        report["jobs"] = len(latencies)
    else:
        from repro.obs.metrics import METRICS

        import tracing

        job_seeds = [next(seeds) for _ in range(spec["traced_jobs"])]
        plain, _, errors, results = timed_jobs(args.workload, job_seeds, None)
        recorder = tracing.Recorder(Path(args.span_dir))
        tracing.install(recorder)
        METRICS.reset()
        METRICS.enable()
        traced, _, traced_errors, _ = timed_jobs(args.workload, job_seeds, None, recorder)
        METRICS.disable()
        errors += traced_errors
        recorder.merge_workers()
        counters = METRICS.snapshot()
        for name, value in recorder.worker_counters.items():
            counters[name] = counters.get(name, 0) + value
        pool = workloads.SWEEP_WORKERS if spec["kind"] == "sweep" else 0
        metrics = tracing.layer_metrics(recorder, pool, counters)
        recorder.write_chrome(Path(args.trace_out))
        metrics["api.build_s"] = api_build_s
        metrics["trace.overhead"] = sum(traced) / sum(plain)
        report["metrics"] = metrics
        report["jobs"] = len(plain) + len(traced)
        latencies = plain + traced

    units = workloads.SWEEP_UNITS if spec["kind"] == "sweep" else 1
    report["attempted"] = len(latencies) * units
    report["failed"] = errors * units
    if results:
        attempted, failed, notes = check_outputs(args.workload, args.seed, results)
    else:
        attempted, failed, notes = 1, 1, ["no job completed"]
    report["checks"] = {"attempted": attempted, "failed": failed, "notes": notes[:10]}
    # Last: the run manifest forks ``git``, a child as large as this
    # process that ``peak_rss_mb`` would otherwise count.
    report["fingerprint"] = fingerprint()
    print(json.dumps(report), flush=True)
    return 0


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


if __name__ == "__main__":
    sys.exit(main())
