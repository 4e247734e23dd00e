"""Output checks whose references do not share the code path they check.

* Decoded runs: the failures ``Session.run`` reports must equal the
  failures recomputed from the records and predictions it actually
  produced; for a seeded sample of those shots, a fresh cache-less decoder
  decoding one shot at a time must reproduce the batch prediction; and on
  offline syndromes with at most ``BRUTE_FORCE_MAX`` fired detectors the
  correction's weight must equal a brute-force minimum over every boundary
  matching.  Both are priced on ``DetectorGraph.sparse_weights``, the
  matrix the matcher is given, with shortest paths computed here.
* Windowed runs: the same sample is decoded by a sliding-window reference
  written here from the window layer's contract (decode ``W`` rounds plus
  a context layer, commit edges below the commit layer, XOR the crossing
  time edge's upper end into the next window as an artifact defect), which
  calls only a fresh cache-less decoder's ``decode_shot_edges`` per
  window.  Its prediction must equal the batch prediction, and every
  window correction with at most ``BRUTE_FORCE_MAX`` fired detectors (and
  within the decoder's exact-matching limit) must weigh the brute-force
  minimum.
* Weight model (reported, not failed): ``sparse_weights`` sums the weights
  of parallel edges, while ``DetectorGraph.edges`` and ``edge_between``
  keep the lightest one.  Each run reports how many sampled syndromes have
  a cheaper matching on the edge list's own weights than on the matrix.
* Sweeps: one unit re-run serially (``workers=1``) must give a
  bit-identical row.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math

import numpy as np

BRUTE_FORCE_MAX = 10
SAMPLE_SHOTS = 40


@contextlib.contextmanager
def capture_decoded_run():
    """Record every simulated batch and every top-level batch prediction.

    Yields ``(runs, predictions)``: ``runs`` holds the simulator's
    ``RunResult`` per batch and ``predictions`` ``(provider, flips)`` per
    call of the batch-decode provider (a decoder, or a windowed decoder).
    """
    from repro.decoders.base import DecoderBase
    from repro.realtime import WindowedDecoder
    from repro.sim import LeakageSimulator

    runs: list = []
    predictions: list = []
    depth = [0]
    originals = {
        (LeakageSimulator, "run"): LeakageSimulator.run,
        (DecoderBase, "decode_batch"): DecoderBase.decode_batch,
        (WindowedDecoder, "decode_batch"): WindowedDecoder.decode_batch,
    }

    def simulator_run(self, shots, rounds):
        result = originals[(LeakageSimulator, "run")](self, shots, rounds)
        runs.append(result)
        return result

    def provider(key):
        def decode_batch(self, history, final):
            depth[0] += 1
            try:
                flips = originals[key](self, history, final)
            finally:
                depth[0] -= 1
            if depth[0] == 0:
                predictions.append((self, np.asarray(flips, dtype=bool)))
            return flips

        return decode_batch

    LeakageSimulator.run = simulator_run
    DecoderBase.decode_batch = provider((DecoderBase, "decode_batch"))
    WindowedDecoder.decode_batch = provider((WindowedDecoder, "decode_batch"))
    try:
        yield runs, predictions
    finally:
        for (owner, name), original in originals.items():
            setattr(owner, name, original)


def check_decoded(run_job, seed: int) -> tuple[int, int, list[str]]:
    """Run one captured job and check it; returns (attempted, failed, notes)."""
    from repro.decoders import DecoderBase, SyndromeCache

    with capture_decoded_run() as (runs, predictions):
        result = run_job()
    notes: list[str] = []
    if not runs or len(runs) != len(predictions):
        return 1, 1, [f"captured {len(runs)} batches but {len(predictions)} decodes"]

    recount = sum(
        int((flips ^ run.observable_flips).sum())
        for run, (_, flips) in zip(runs, predictions)
    )
    attempted, failed = 1, int(recount != result.failures)
    if failed:
        notes.append(f"failures {result.failures} != recomputed {recount}")

    rng = np.random.default_rng(seed)
    weight_model_gaps = 0
    for run, (provider, flips) in zip(runs, predictions):
        shots = flips.shape[0]
        sample = rng.choice(shots, size=min(SAMPLE_SHOTS, shots), replace=False)
        offline = isinstance(provider, DecoderBase)
        if offline:
            oracle = dataclasses.replace(provider, cache=SyndromeCache(0))
            matrix, edge_list = _distances(provider.graph)
        else:
            reference = WindowReference(provider)
        for shot in sample:
            history = run.detector_history[shot]
            final = run.final_detectors[shot]
            attempted += 1
            if offline:
                single = oracle.decode_shot(history, final)
            else:
                single, windows = reference.decode_shot(history, final)
            if bool(single) != bool(flips[shot]):
                failed += 1
                notes.append(f"shot {shot}: per-shot {single} != batch {flips[shot]}")
                continue
            if not offline:
                for graph, window_history, context, edges in windows:
                    flagged = graph.flagged_nodes(window_history, context)
                    if not 0 < flagged.size <= reference.exact_limit:
                        continue
                    attempted += 1
                    weight = sum(graph.sparse_weights[a, b] for a, b in edges)
                    best = _brute_force(flagged, reference.distances(graph), graph.boundary_node)
                    if not math.isclose(weight, best, rel_tol=1e-9, abs_tol=1e-9):
                        failed += 1
                        notes.append(f"shot {shot}: window weight {weight} != brute force {best}")
                continue
            flagged = provider.graph.flagged_nodes(history, final)
            if not 0 < flagged.size <= BRUTE_FORCE_MAX:
                continue
            attempted += 1
            weights = provider.graph.sparse_weights
            edges = oracle.decode_shot_edges(history, final)
            weight = sum(weights[a, b] for a, b in edges)
            boundary = provider.graph.boundary_node
            best = _brute_force(flagged, matrix, boundary)
            if not math.isclose(weight, best, rel_tol=1e-9, abs_tol=1e-9):
                failed += 1
                notes.append(f"shot {shot}: weight {weight} != brute force {best}")
            if _brute_force(flagged, edge_list, boundary) < best - 1e-9:
                weight_model_gaps += 1
    if weight_model_gaps:
        notes.append(
            f"weight model: {weight_model_gaps} sampled syndromes match cheaper on "
            "the edge list than on sparse_weights (parallel edges are summed)"
        )
    return attempted, failed, notes


class WindowReference:
    """Sliding-window decoding of one shot at a time, outside the window layer.

    Takes only the windowed decoder's settings; builds its own window graphs
    and cache-less decoders, and splits, commits and carries artifacts
    itself, so a fault in the window layer's batching, dedup, caching or
    commit code cannot be mirrored here.
    """

    def __init__(self, windowed) -> None:
        self.settings = windowed
        self.exact_limit = min(BRUTE_FORCE_MAX, windowed.max_exact_nodes or BRUTE_FORCE_MAX)
        self._decoders: dict[int, tuple] = {}
        self._distances: dict[int, np.ndarray] = {}

    def decoder_for(self, rounds: int):
        from repro.decoders import DetectorGraph, make_decoder

        if rounds not in self._decoders:
            settings = self.settings
            graph = DetectorGraph(
                code=settings.code, rounds=rounds, noise=settings.noise, hyperedges="decompose"
            )
            decoder = make_decoder(
                graph, settings.method, max_exact_nodes=settings.max_exact_nodes,
                strategy=settings.strategy, cache_size=0,
            )
            self._decoders[rounds] = (graph, decoder)
        return self._decoders[rounds]

    def distances(self, graph) -> np.ndarray:
        if graph.rounds not in self._distances:
            self._distances[graph.rounds] = _distances(graph)[0]
        return self._distances[graph.rounds]

    def decode_shot(self, history, final) -> tuple[bool, list]:
        """Returns the predicted flip and every window as
        ``(graph, history, context, correction edges)``."""
        rounds = history.shape[0]
        window = min(self.settings.window_rounds, rounds)
        commit = self.settings.commit_rounds
        layers = np.array(history, dtype=bool)
        parity, windows, start = False, [], 0
        while start + window < rounds:
            graph, decoder = self.decoder_for(window)
            inputs = (layers[start : start + window].copy(), layers[start + window].copy())
            edges = decoder.decode_shot_edges(*inputs)
            windows.append((graph, *inputs, edges))
            for node_a, node_b in edges:
                low, high = _edge_layers(graph, node_a, node_b)
                if high < commit:
                    parity ^= _flips_logical(graph, node_a, node_b)
                elif (low, high) == (commit - 1, commit):
                    upper = max(node_a, node_b)  # the later layer's node
                    layers[start + commit, upper % graph.num_z_stabs] ^= True
            start += commit
        graph, decoder = self.decoder_for(rounds - start)
        inputs = (layers[start:].copy(), np.array(final, dtype=bool))
        edges = decoder.decode_shot_edges(*inputs)
        windows.append((graph, *inputs, edges))
        for node_a, node_b in edges:
            parity ^= _flips_logical(graph, node_a, node_b)
        return parity, windows


def _edge_layers(graph, node_a: int, node_b: int) -> tuple[int, int]:
    """Lowest and highest detector layer an edge touches (a boundary edge
    lies in its detector's layer)."""
    layers = [node // graph.num_z_stabs for node in (node_a, node_b) if node != graph.boundary_node]
    return min(layers), max(layers)


def _flips_logical(graph, node_a: int, node_b: int) -> bool:
    edge = graph.edge_between(node_a, node_b)
    return edge is not None and edge.flips_logical


def _distances(graph):
    """All-pairs shortest paths on the matcher's weight matrix and on the
    edge list (lightest edge per node pair), without the decoder's tables."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    best: dict[tuple[int, int], float] = {}
    for edge in graph.edges:
        key = (min(edge.node_a, edge.node_b), max(edge.node_a, edge.node_b))
        best[key] = min(best.get(key, math.inf), edge.weight)
    rows = [a for a, _ in best] + [b for _, b in best]
    cols = [b for _, b in best] + [a for a, _ in best]
    size = graph.num_nodes
    edge_list = csr_matrix((list(best.values()) * 2, (rows, cols)), shape=(size, size))
    return (
        dijkstra(graph.sparse_weights, directed=False),
        dijkstra(edge_list, directed=False),
    )


def _brute_force(flagged, distances, boundary: int) -> float:
    """Minimum total weight over every way to pair detectors or send them
    to the boundary (plain enumeration, no dynamic programming)."""
    nodes = [int(node) for node in flagged]

    def best(remaining: tuple[int, ...]) -> float:
        if not remaining:
            return 0.0
        first, rest = remaining[0], remaining[1:]
        value = distances[first, boundary] + best(rest)
        for k, other in enumerate(rest):
            value = min(
                value, distances[first, other] + best(rest[:k] + rest[k + 1 :])
            )
        return value

    return float(best(tuple(nodes)))


def rows_identical(left: dict, right: dict) -> bool:
    """Bit-identity of two sweep rows (arrays compared elementwise)."""
    if left.keys() != right.keys():
        return False
    for key, value in left.items():
        other = right[key]
        if isinstance(value, np.ndarray) or isinstance(other, np.ndarray):
            if not np.array_equal(np.asarray(value), np.asarray(other)):
                return False
        elif value != other:
            return False
    return True
