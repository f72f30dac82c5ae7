"""Compare the per-layer numbers of two traced benchmark runs.

Usage, from the root of a checkout::

    python3 perfbench/diff.py BASE NEW

BASE and NEW are result files written by ``perfbench/run.py --trace 1`` or
directories holding them; directories are paired by workload.  For each
workload the tool prints every per-layer metric, and each layer's median
self time per traced operation, with the base value, the new value and the
change.  A claimed gain shows here as a drop in the layer it touched.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median


def _load(path: Path) -> dict[str, dict]:
    """``{workload: record}`` from one traced result file or a directory."""
    files = sorted(path.glob("*-trace1.json")) if path.is_dir() else [path]
    records = {}
    for file in files:
        record = json.loads(file.read_text())
        if record.get("trace") != 1:
            raise SystemExit(f"{file} is not a traced result (run with --trace 1)")
        records[record["workload"]] = record
    return records


def layer_self_times(record: dict) -> dict[str, float]:
    """Median over traced operations of each layer's self time, in seconds.

    A layer is the part of a span name before its first dot; the ``op``
    root span is the time the replayed path spent outside every layer.
    """
    spans = record["detail"]["trace"]["spans"]
    child = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child[span["parent"]] += span["end"] - span["start"]
    per_op: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for index, span in enumerate(spans):
        layer = span["name"].split(".", 1)[0]
        per_op[span["op"]][layer] += span["end"] - span["start"] - child[index]
    layers = {layer for times in per_op.values() for layer in times}
    return {
        layer: median(times[layer] for times in per_op.values() if layer in times)
        for layer in sorted(layers)
    }


def _row(name: str, base, new) -> str:
    if base is None or new is None:
        return f"  {name:44} {_fmt(base):>12} {_fmt(new):>12}"
    delta = new - base
    share = f"{delta / base:+.1%}" if base else ""
    return f"  {name:44} {_fmt(base):>12} {_fmt(new):>12} {delta:+12.4g} {share:>8}"


def _fmt(value) -> str:
    return "null" if value is None else f"{value:.4g}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (_load(Path(arg)) for arg in argv)
    for workload in sorted(set(base) & set(new)):
        old_rec, new_rec = base[workload], new[workload]
        print(f"{workload}: base seed {old_rec['seed']}, new seed {new_rec['seed']}")
        print(f"  {'metric':44} {'base':>12} {'new':>12} {'delta':>12} {'share':>8}")
        names = list(old_rec["metrics"]) + [
            n for n in new_rec["metrics"] if n not in old_rec["metrics"]
        ]
        for name in names:
            print(_row(name, old_rec["metrics"].get(name), new_rec["metrics"].get(name)))
        print("  layer self time per traced op (s)")
        old_layers, new_layers = layer_self_times(old_rec), layer_self_times(new_rec)
        for layer in sorted(set(old_layers) | set(new_layers)):
            print(_row(layer, old_layers.get(layer), new_layers.get(layer)))
    unmatched = sorted(set(base) ^ set(new))
    if unmatched:
        print(f"workloads in only one side: {', '.join(unmatched)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
