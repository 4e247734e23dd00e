"""Open-loop stream generator for ``python -m repro serve``.

One process, one asyncio thread, one connection.  Before timing starts it
cuts one record per stream from a single seeded simulator run and decodes
a seeded sample of them through an in-process
:class:`repro.realtime.DecodeService`, the reference every served
prediction in the sample must equal.

The connection then carries three phases, each waiting for the previous
one's results:

1. a warm-up open loop of ``warmup_s`` seconds, so the server's lazily
   built decoders exist before timing (checked, not timed);
2. the measured open loop of ``--seconds`` seconds: streams open every
   ``1 / stream_rate`` seconds and each sends one round chunk per
   ``round_cadence_s``, whether or not the server keeps up, as a QEC
   device would.  A stream's lag is the arrival time of its RESULT minus
   the time its FINAL was due;
3. ``bursts`` closed bursts that send every frame of ``burst_streams``
   streams back to back and time them to the last RESULT: the served
   capacity in shot-rounds per second, which the fixed open-loop rate
   cannot show.  No schedule paces a burst; only the server does.

A stream's frames are held back until the server has answered its OPEN
(a REJECT drops them), so a refused stream is counted as failed instead of
breaking the connection.  Every frame's lateness against its own due time
is recorded: a measured loop whose generator ran later than one round
period at p99 measured the host, not the server, and is reported as
invalid (``"valid": false``).
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import heapq
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402  (benchmark-local module)

from repro.codes import surface_code  # noqa: E402
from repro.core import make_policy  # noqa: E402
from repro.noise import paper_noise  # noqa: E402
from repro.realtime import DecodeService  # noqa: E402
from repro.serve.protocol import (  # noqa: E402
    FrameDecoder,
    FrameType,
    decode_json,
    decode_result,
    encode_chunk,
    encode_final,
    encode_frame,
    encode_json,
)
from repro.sim import LeakageSimulator, SimulatorOptions  # noqa: E402

SERVE = workloads.SERVE
#: Streams still without a RESULT this long after their phase's schedule
#: ends are counted as failed.
RESULT_GRACE_S = 20.0


def make_records(seed: int, count: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``count`` independent stream records cut from one seeded simulator run."""
    simulator = LeakageSimulator(
        code=surface_code(SERVE["code"]["distance"]),
        noise=paper_noise(**SERVE["noise"]),
        policy=make_policy(SERVE["policy"]),
        options=SimulatorOptions(record_detectors=True),
        seed=seed,
    )
    shots = SERVE["shots"]
    result = simulator.run(shots=shots * count, rounds=SERVE["rounds"])
    return [
        (
            result.detector_history[k * shots : (k + 1) * shots],
            result.final_detectors[k * shots : (k + 1) * shots],
            result.observable_flips[k * shots : (k + 1) * shots],
        )
        for k in range(count)
    ]


def reference_predictions(records) -> list[np.ndarray]:
    """Predictions of an in-process push-mode service on every record."""
    code = surface_code(SERVE["code"]["distance"])
    noise = paper_noise(**SERVE["noise"])
    service = DecodeService(window_rounds=SERVE["window_rounds"], method="matching", workers=2)
    try:
        service.start()
        handles = [
            service.open_stream(code=code, noise=noise, shots=SERVE["shots"], rounds=SERVE["rounds"])
            for _ in records
        ]
        for round_index in range(SERVE["rounds"]):
            for (history, _, _), handle in zip(records, handles):
                handle.feed_round(history[:, round_index, :])
        for (_, final, flips), handle in zip(records, handles):
            handle.finish(final, flips)
        for handle in handles:
            handle.result(timeout=120)
        return [np.asarray(handle.predictions, dtype=bool) for handle in handles]
    finally:
        service.close()


def stream_frames(stream: int, record) -> list[bytes]:
    """OPEN, one CHUNK per round, FINAL."""
    history, final, flips = record
    request = {
        "stream": stream,
        "shots": SERVE["shots"],
        "rounds": SERVE["rounds"],
        "code": SERVE["code"],
        "noise": SERVE["noise"],
        "window_rounds": SERVE["window_rounds"],
    }
    frames = [encode_frame(FrameType.OPEN, encode_json(request))]
    for round_index in range(SERVE["rounds"]):
        frames.append(
            encode_frame(FrameType.CHUNK, encode_chunk(stream, round_index, history[:, round_index, :]))
        )
    frames.append(encode_frame(FrameType.FINAL, encode_final(stream, final, flips)))
    return frames


class Connection:
    """The generator's one connection; a reader task stamps every server frame."""

    def __init__(self) -> None:
        self.opened: dict[int, float] = {}
        self.accepted: dict[int, float] = {}
        self.results: dict[int, tuple[float, np.ndarray, dict]] = {}
        self.failed: dict[int, str] = {}
        #: Frames of streams whose OPEN is not answered yet.
        self.held: dict[int, list[bytes]] = {}
        self.status: asyncio.Future | None = None

    async def open(self, port: int) -> None:
        self.reader, self.writer = await asyncio.open_connection("127.0.0.1", port)
        self.writer.write(encode_frame(FrameType.HELLO, encode_json({"tenant": "perfbench", "protocol": 1})))
        self.task = asyncio.get_running_loop().create_task(self._read())

    def send(self, stream: int, position: int, frame: bytes) -> None:
        if position == 0:
            self.opened[stream] = time.perf_counter()
            self.held[stream] = []
            self.writer.write(frame)
        elif stream in self.held:
            self.held[stream].append(frame)
        elif stream in self.accepted:
            self.writer.write(frame)
        # else: refused at OPEN, its frames are dropped

    async def _read(self) -> None:
        decoder = FrameDecoder()
        while True:
            data = await self.reader.read(1 << 16)
            if not data:
                return
            now = time.perf_counter()
            for frame_type, payload in decoder.feed(data):
                if frame_type == FrameType.RESULT:
                    stream, predictions, _, summary = decode_result(payload)
                    self.results[stream] = (now, predictions, summary)
                elif frame_type == FrameType.ACCEPT:
                    stream = decode_json(payload)["stream"]
                    self.accepted[stream] = now
                    for frame in self.held.pop(stream, ()):
                        self.writer.write(frame)
                elif frame_type in (FrameType.REJECT, FrameType.STREAM_ERROR):
                    message = decode_json(payload)
                    self.held.pop(message["stream"], None)
                    self.failed[message["stream"]] = message.get("reason") or message.get("error")
                elif frame_type == FrameType.STATUS_REPLY and self.status is not None:
                    self.status.set_result(decode_json(payload))
                elif frame_type == FrameType.ERROR:
                    raise RuntimeError(decode_json(payload))

    async def wait_results(self, streams, timeout: float) -> None:
        end = time.perf_counter() + timeout
        while time.perf_counter() < end and not all(
            s in self.results or s in self.failed for s in streams
        ):
            if self.task.done():
                self.task.result()
                raise ConnectionError("server closed the connection")
            await asyncio.sleep(0.005)

    async def fetch_status(self) -> dict:
        self.status = asyncio.get_running_loop().create_future()
        self.writer.write(encode_frame(FrameType.STATUS, encode_json({})))
        return await asyncio.wait_for(self.status, 10)

    async def close(self) -> None:
        self.task.cancel()
        try:
            await self.task
        except asyncio.CancelledError:
            pass
        self.writer.close()
        await self.writer.wait_closed()


async def run_schedule(
    connection: Connection, records, starts: dict[int, float], cadence: float
) -> dict:
    """Send every frame of ``records`` at its due time; returns the phase.

    Stream ``s`` opens at ``starts[s]`` seconds after the phase origin and
    sends round ``r`` at ``starts[s] + (r + 1) * cadence``, its FINAL with
    its last round.
    """
    rounds = SERVE["rounds"]
    events = []
    for stream, start in starts.items():
        frames = stream_frames(stream, records[stream])
        dues = [start] + [start + (r + 1) * cadence for r in range(rounds)] + [start + rounds * cadence]
        events.extend((due, position, stream, frame) for position, (due, frame) in enumerate(zip(dues, frames)))
    heapq.heapify(events)
    lateness = []
    writer = connection.writer
    # Everything allocated so far lives to the end of the phase: keep the
    # collector from pausing the schedule to traverse it.
    gc.collect()
    gc.freeze()
    origin = time.perf_counter() + 0.05
    while events:
        due, position, stream, frame = heapq.heappop(events)
        delay = origin + due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        connection.send(stream, position, frame)
        lateness.append(time.perf_counter() - origin - due)
        if connection.task.done():
            connection.task.result()
            raise ConnectionError("server closed the connection")
        if writer.transport.get_write_buffer_size() > 1 << 16:
            await writer.drain()
    await writer.drain()
    await connection.wait_results(list(starts), RESULT_GRACE_S)
    gc.unfreeze()
    return {
        "origin": origin,
        "late_p99_ms": 1e3 * float(np.percentile(lateness, 99)),
        "final_due": {s: origin + start + rounds * cadence for s, start in starts.items()},
    }


def open_loop_starts(first: int, seconds: float) -> dict[int, float]:
    count = max(1, int(round(SERVE["stream_rate"] * seconds)))
    return {first + k: k / SERVE["stream_rate"] for k in range(count)}


async def drive(port: int, records, seconds: float) -> dict:
    connection = Connection()
    await connection.open(port)
    try:
        cadence = SERVE["round_cadence_s"]
        warm = open_loop_starts(0, SERVE["warmup_s"])
        await run_schedule(connection, records, warm, cadence)
        measured = open_loop_starts(len(warm), seconds)
        loop = await run_schedule(connection, records, measured, cadence)
        loop["streams"] = list(measured)
        status = await connection.fetch_status()
        first, bursts = len(warm) + len(measured), []
        for _ in range(SERVE["bursts"]):
            starts = {first + k: 0.0 for k in range(SERVE["burst_streams"])}
            first += len(starts)
            phase = await run_schedule(connection, records, starts, 0.0)
            served = [s for s in starts if s in connection.results]
            last = max((connection.results[s][0] for s in served), default=phase["origin"])
            bursts.append(len(served) * SERVE["shots"] * SERVE["rounds"] / (last - phase["origin"]))
        return {"connection": connection, "loop": loop, "status": status, "bursts": bursts}
    finally:
        await connection.close()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    from worker import fingerprint

    count = len(open_loop_starts(0, SERVE["warmup_s"])) + len(open_loop_starts(0, args.seconds))
    count += SERVE["bursts"] * SERVE["burst_streams"]
    records = make_records(args.seed, count)
    sample = np.random.default_rng(args.seed).choice(count, SERVE["checked_streams"], replace=False)
    reference = dict(zip(sample.tolist(), reference_predictions([records[s] for s in sample])))
    run = asyncio.run(drive(args.port, records, args.seconds))

    connection, loop = run["connection"], run["loop"]
    served = [s for s in range(count) if s in connection.results]
    checked = [s for s in reference if s in connection.results]
    wrong = sum(not np.array_equal(connection.results[s][1], reference[s]) for s in checked)
    streams = loop["streams"]
    done = [s for s in streams if s in connection.results]
    lag = np.asarray([connection.results[s][0] - loop["final_due"][s] for s in done])
    lag_ms = np.percentile(1e3 * lag, [50, 90, 99]) if done else [float("nan")] * 3
    valid = loop["late_p99_ms"] <= 1e3 * SERVE["round_cadence_s"]
    report = {
        "fingerprint": fingerprint(),
        "attempted": count,
        "failed": count - len(served),
        "checks": {
            "attempted": len(checked),
            "failed": int(wrong),
            "notes": [f"{wrong} streams differ from the in-process DecodeService"] if wrong else [],
        },
        "streams": len(streams),
        "stream_rate": SERVE["stream_rate"],
        "round_cadence_s": SERVE["round_cadence_s"],
        "late_p99_ms": loop["late_p99_ms"],
        "lag_p90_p99_ms": [float(lag_ms[1]), float(lag_ms[2])],
        "burst_shot_rounds_per_s": run["bursts"],
        "valid": valid,
    }
    if not args.trace:
        slo_s = SERVE["window_rounds"] * SERVE["round_cadence_s"]
        report["metrics"] = {
            "shot_rounds_per_s": statistics.median(run["bursts"]),
            "lag_p50_ms": float(lag_ms[0]),
            "slo_attainment": float(np.sum(lag <= slo_s)) / len(streams),
        }
    else:
        status = run["status"]
        accept = [connection.accepted[s] - connection.opened[s] for s in streams if s in connection.accepted]
        # Server-side decode time of one window: a stream's summed window
        # decode time over its windows (RESULT carries no per-window times).
        window_ms = 1e3 * statistics.median(
            connection.results[s][2]["decode_seconds"] / max(1, connection.results[s][2]["windows"])
            for s in done
        )
        report["metrics"] = {
            "serve.accept_ms": 1e3 * float(np.median(accept)),
            "serve.decode_round_p50_ms": status["round_latency_p50_ns"] * 1e-6,
            "serve.window_wait_p99_ms": status["window_wait_p99_ns"] * 1e-6,
            "serve.coalesce_ratio": status["coalesce_ratio"],
            "serve.max_queue_depth": status["max_queue_depth"],
            "serve.lag_p99_ms": float(lag_ms[2]),
            "serve.unattributed_lag_ms": float(lag_ms[0]) - window_ms,
            "serve.window_decode_mean_ms": window_ms,
            "loadgen.late_p99_ms": loop["late_p99_ms"],
            "trace.attributed_fraction": min(1.0, window_ms / float(lag_ms[0])),
            # Nothing is instrumented in either process: a traced run reads
            # only client timestamps and the server's STATUS reply.
            "trace.overhead": 1.0,
        }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
