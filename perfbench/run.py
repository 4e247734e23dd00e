"""Layered end-to-end benchmark of the leakage-speculation system.

Run from the root of a checkout::

    python3 perfbench/run.py --workload decode_offline --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 0

Three workloads run four user paths (``workloads.py``, ``BENCHMARK.json``):
``Session.run`` offline, ``Session.sweep`` of windowed-decoded units and
``python -m repro serve`` over TCP.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` makes a separate traced run and prints the
per-layer metrics (``tracing.py``), writing its spans as a Chrome trace to
``.bench_build/traces/``.  The last line of standard output is one JSON
object (``correct``, ``attempted``, ``failed``, ``metrics``); the lines
before it print every metric with its unit, ``error_rate`` (failed over
attempted operations, output checks included) and the host fingerprint.
Each result is appended to ``.bench_build/results.jsonl`` for
``compare.py``.  The exit code is non-zero on any output-check mismatch or
failed operation.

End-to-end metrics, all measured untraced.  Every workload reports every
metric; where the open-loop and the batch paths differ, both meanings are
given.

* ``setup_s``: median over ``SETUP_SAMPLES`` fresh processes of the wall
  time from launch until the first unit of work can start: imports, config
  validation, component build and kernel load for the batch workloads;
  server start until HELLO is answered for ``serve_open_loop``.  Half the
  probes run before the timed work and half after it, each pinned to one
  CPU in turn, so one run's median spans its whole duration.
* ``shot_rounds_per_s``: batch workloads run back-to-back jobs (one
  ``Session.run`` or ``Session.sweep`` call each) for ``--seconds`` and
  report shots x rounds completed over the jobs' summed wall time.  The
  open loop's rate is fixed by its schedule, so ``serve_open_loop``
  reports the median served capacity of closed bursts after it.
* ``lag_p50_ms``: ``serve_open_loop``: median of RESULT arrival minus the
  time the stream's FINAL was due.  Batch workloads have no schedule: a job
  is due when it is called, so its lag is its wall time.
* ``slo_attainment``: ``serve_open_loop``: share of streams attempted whose
  lag is at most ``window_rounds`` round periods.  Batch workloads, which
  have no deadline: share of jobs that completed.
* ``peak_rss_mb``: peak RSS of the working process plus its largest pool
  worker, or of the server process.

This script imports nothing from the program under test: every
measurement happens in fresh child processes with a pinned environment,
and the C kernels are built once, before any timing, into a directory
this benchmark owns.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402  (benchmark-local module)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
#: Fresh-process set-ups timed per run (``setup_s`` is their median).
SETUP_SAMPLES = 12
#: Every child process is killed once the run has taken this long.
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    """The run cannot produce a valid result (no JSON line is printed)."""


def pinned_env() -> dict[str, str]:
    """The environment every measured process gets.

    All ``REPRO_*`` knobs (cache, workers, scale, telemetry, chaos, prefetch,
    kernel switches) are cleared so the program runs its defaults; the C
    kernels load from a directory this benchmark owns.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CKERNEL_DIR"] = str(BUILD_DIR / "ckernels")
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def prepare(env: dict[str, str]) -> None:
    """Compile the C kernels and warm the bytecode cache once per source
    tree; never timed."""
    stamp = BUILD_DIR / f"prepared-{source_digest()}"
    if stamp.exists():
        return
    code = (
        "import repro, repro.serve, repro.__main__, repro.sweeps.executor\n"
        "from repro.sim import _ckernels as s\n"
        "from repro.decoders import _ckernels as d\n"
        "s.available(); d.available()\n"
    )
    subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, check=True, timeout=600
    )
    stamp.touch()


def source_digest() -> str:
    """Content digest of ``src/`` (the checkout is not a git repository)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_fingerprint(program: dict) -> dict:
    """The worker's fingerprint (``worker.fingerprint``) plus the CPUs and
    a digest of the source tree measured."""
    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model, **program,
            "source_digest": source_digest()}


# --------------------------------------------------------------------- #
# Child processes
# --------------------------------------------------------------------- #
class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        remaining = self.end - time.monotonic()
        if remaining <= 0:
            raise BenchError("run exceeded its time budget")
        return remaining


def read_line(process: subprocess.Popen, deadline: Deadline) -> str:
    """One line of a child's stdout, or an error if it dies or stalls."""
    while True:
        ready, _, _ = select.select([process.stdout], [], [], min(1.0, deadline.left()))
        if ready:
            line = process.stdout.readline()
            if not line:
                raise BenchError(f"child {process.args[:3]} exited with {process.wait()}")
            return line


def stop(process: subprocess.Popen, sig: int = signal.SIGTERM) -> None:
    if process.poll() is None:
        process.send_signal(sig)
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


def last_json(text: str) -> dict:
    for line in reversed(text.strip().splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise BenchError("child printed no JSON report")


def pinned_to(cpu: int):
    """A ``preexec_fn`` that pins the child to one CPU."""
    return lambda: os.sched_setaffinity(0, {cpu})


def probe_setups(launch, count: int) -> list[float]:
    """Time ``count`` fresh set-ups; ``launch(cpu)`` returns one's seconds.

    Probe ``k`` is pinned to CPU ``k mod n``: on a shared host the vCPUs'
    speeds differ, and a probe left where the scheduler puts it adds that
    difference to the spread.
    """
    cpus = sorted(os.sched_getaffinity(0))
    return [launch(cpus[k % len(cpus)]) for k in range(count)]


def run_batch(args, env, deadline: Deadline) -> tuple[dict, list[float]]:
    """Set-up probes around the timed worker; returns its report and set-up times."""
    command = [
        sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    span_dir = BUILD_DIR / "spans" / f"{args.workload}-{os.getpid()}"
    if args.trace:
        shutil.rmtree(span_dir, ignore_errors=True)
        span_dir.mkdir(parents=True)
        trace_out = BUILD_DIR / "traces" / f"{args.workload}-seed{args.seed}.json"
        command += ["--span-dir", str(span_dir), "--trace-out", str(trace_out)]
    processes = []

    def launch(cpu: int | None) -> tuple[subprocess.Popen, float]:
        started = time.perf_counter()
        process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT,
            text=True, preexec_fn=None if cpu is None else pinned_to(cpu),
        )
        processes.append(process)
        if read_line(process, deadline).strip() != "READY":
            raise BenchError("worker did not report READY")
        return process, time.perf_counter() - started

    def probe(cpu: int) -> float:
        process, seconds = launch(cpu)
        process.communicate("exit\n", timeout=deadline.left())
        return seconds

    probes = 0 if args.trace else SETUP_SAMPLES
    try:
        samples = probe_setups(probe, probes // 2)
        process, seconds = launch(None)
        out, _ = process.communicate("run\n", timeout=deadline.left())
        if process.returncode != 0:
            raise BenchError(f"worker exited with {process.returncode}")
        samples += probe_setups(probe, probes - probes // 2)
        return last_json(out), samples or [seconds]
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker exceeded the run's time budget") from exc
    finally:
        for process in processes:
            stop(process, signal.SIGKILL)
        shutil.rmtree(span_dir, ignore_errors=True)


def hello_round_trip(port: int, deadline: Deadline) -> None:
    """HELLO -> WELCOME on the server's wire protocol (``repro.serve.protocol``:
    u32 big-endian length, one type byte, JSON payload; HELLO=1, WELCOME=2)."""
    payload = json.dumps({"tenant": "perfbench", "protocol": 1}).encode()
    with socket.create_connection(("127.0.0.1", port), timeout=deadline.left()) as sock:
        sock.sendall(struct.pack(">I", len(payload) + 1) + b"\x01" + payload)
        header = b""
        while len(header) < 5:
            chunk = sock.recv(5 - len(header))
            if not chunk:
                raise BenchError("server closed the connection during HELLO")
            header += chunk
        if header[4] != 2:
            raise BenchError(f"server answered HELLO with frame type {header[4]}")


def start_server(env, deadline: Deadline, cpu: int | None = None):
    """A fresh server answering HELLO; returns (process, port, set-up seconds)."""
    started = time.perf_counter()
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
        preexec_fn=None if cpu is None else pinned_to(cpu),
    )
    try:
        banner = read_line(server, deadline)
        if not banner.startswith("serving on "):
            raise BenchError(f"unexpected server banner {banner!r}")
        port = int(banner.split()[2].rsplit(":", 1)[1])
        hello_round_trip(port, deadline)
    except BaseException:
        stop(server, signal.SIGKILL)
        raise
    return server, port, time.perf_counter() - started


def peak_rss_of(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for the server process")


def run_serve(args, env, deadline: Deadline) -> tuple[dict, list[float]]:
    """Set-up probes around the measured server; returns the generator's
    report and set-up times."""

    def probe(cpu: int) -> float:
        server, _, seconds = start_server(env, deadline, cpu)
        stop(server)
        return seconds

    probes = 0 if args.trace else SETUP_SAMPLES
    samples = probe_setups(probe, probes // 2)
    server, port, seconds = start_server(env, deadline)
    try:
        generator = subprocess.run(
            [sys.executable, str(BENCH_DIR / "loadgen.py"), "--port", str(port),
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
            timeout=deadline.left(),
        )
        if generator.returncode != 0:
            raise BenchError(f"load generator exited with {generator.returncode}")
        report = last_json(generator.stdout)
        if not args.trace:
            report["metrics"]["peak_rss_mb"] = peak_rss_of(server.pid)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("load generator exceeded the run's time budget") from exc
    finally:
        stop(server)
    samples += probe_setups(probe, probes - probes // 2)
    return report, samples or [seconds]


# --------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------- #
def run_one(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError("no program to measure: src/repro is missing")
    env = pinned_env()
    prepare(env)
    deadline = Deadline(RUN_BUDGET_S)
    kind = workloads.WORKLOADS[args.workload]["kind"]
    runner = run_serve if kind == "serve" else run_batch
    report, setup = runner(args, env, deadline)

    measured = dict(report["metrics"])
    if args.trace:
        # Layers a workload never enters did no work on it.
        for metric in declared:
            measured.setdefault(metric["name"], 0.0)
    else:
        measured["setup_s"] = statistics.median(setup)
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        raise BenchError(f"workload did not measure {missing}")
    checks = report["checks"]
    attempted = report["attempted"] + checks["attempted"]
    failed = report["failed"] + checks["failed"]
    fingerprint = host_fingerprint(report["fingerprint"])

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for metric in declared:
        print(f"  {metric['name']:<36} {measured[metric['name']]:>14.6g} {metric['unit']}")
    print(f"  {'error_rate':<36} {failed / attempted:>14.6g} ratio"
          f"  ({failed} failed of {attempted} attempted)")
    if not args.trace:
        print(f"  setup samples (s): {', '.join(f'{s:.4f}' for s in setup)}")
    if "late_p99_ms" in report:
        print(f"  open loop: {report['streams']} streams at {report['stream_rate']}/s, one round "
              f"per {1e3 * report['round_cadence_s']:g} ms; generator late p99 "
              f"{report['late_p99_ms']:.3f} ms; lag p90, p99 (ms): "
              + ", ".join(f"{v:.3f}" for v in report["lag_p90_p99_ms"])
              + "; burst capacities (1/s): "
              + ", ".join(f"{b:.0f}" for b in report["burst_shot_rounds_per_s"]))
    if report.get("valid") is False:
        print("  INVALID: the load generator fell behind its own schedule by more than "
              "one round period at p99, so this run measured the host, not the server")
    for note in checks["notes"]:
        print(f"  check: {note}")
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    BUILD_DIR.mkdir(exist_ok=True)
    with (BUILD_DIR / "results.jsonl").open("a") as log:
        log.write(json.dumps({"workload": args.workload, "seed": args.seed,
                              "trace": args.trace, "fingerprint": fingerprint,
                              "extra": {k: v for k, v in report.items()
                                        if k not in ("metrics", "fingerprint")},
                              **result}) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def main() -> int:
    # A terminated run still stops the processes it started (finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        status = 0
        for name in workloads.WORKLOADS:
            command = [sys.executable, __file__, "--workload", name, "--seed",
                       str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
            status = max(status, subprocess.run(command).returncode)
        return status
    try:
        return run_one(args)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
