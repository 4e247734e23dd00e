"""Compare two sets of benchmark results, metric by metric.

Usage::

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records ``run.py`` appends to
``.bench_build/results.jsonl``.  Results are only comparable when they
come from the same kind of host: the comparison is refused (exit 2) when
any fingerprint field other than the program's identity (``source_digest``,
``commit``) differs between records.  Runs marked invalid (the load
generator fell behind its own schedule) are left out.  For every workload
and end-to-end metric it prints both medians and quartiles, the change as
a share of the base median, and a verdict against the metric's bound in
``BENCHMARK.json``: ``worse`` beyond the bound, ``unresolved`` when the
base's own quartile spread exceeds the bound, otherwise ``ok``.  Exits 1
if any metric is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> list[dict]:
    records = [json.loads(line) for line in Path(path).read_text().splitlines() if line]
    return [r for r in records if not r["trace"] and r["extra"].get("valid", True)]


def host(record: dict) -> tuple:
    return tuple(sorted(
        (k, v) for k, v in record["fingerprint"].items() if k not in ("source_digest", "commit")
    ))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4)
    return low, mid, high


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    hosts = {host(r) for r in base + new}
    if len(hosts) != 1:
        print("refusing to compare: host fingerprints differ:", file=sys.stderr)
        for fingerprint in sorted(hosts):
            print(f"  {dict(fingerprint)}", file=sys.stderr)
        return 2
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    worse = False
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        print(workload)
        for metric in metrics:
            name = metric["name"]
            sides = [
                [r["metrics"][name]["value"] for r in records if r["workload"] == workload]
                for records in (base, new)
            ]
            (b_low, b_mid, b_high), (n_low, n_mid, n_high) = map(quartiles, sides)
            sign = 1 if metric["better"] == "lower" else -1
            change = sign * (n_mid - b_mid) / b_mid
            if change > metric["bound"]:
                verdict, worse = "worse", True
            elif (b_high - b_low) / b_mid > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(
                f"  {name:<20} base {b_mid:.6g} [{b_low:.6g}, {b_high:.6g}] n={len(sides[0])}"
                f"  new {n_mid:.6g} [{n_low:.6g}, {n_high:.6g}] n={len(sides[1])}"
                f"  worse by {change:+.1%}  {verdict}"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
