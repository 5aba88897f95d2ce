"""Turn a traced pass's spans into the per-layer table.

A span's *self time* is its duration minus the time its child spans
cover.  The tracing overhead is the traced whole less the untraced whole
of the same work.  It is charged to the spans, the same cost to each:
the overhead over the number of spans.  :func:`tracing.span_cost` splits
that cost into the part inside a span's interval, taken out of its self
time, and the part outside, taken out of its parent's self time.  (A
no-op timed on its own gives a cost per span several times too small:
in the program, the wrapper's extra frames, argument passing and cache
misses cost more.)  Summed per layer (the span name's prefix:
``kernel``, ``core``, ``replication``, ``durability``, ``service``),
the corrected self times are shares of the *untraced* whole; the
*remainder* is the rest of it: the benchmark's load loop, and for the
service the asyncio loop, locks and round bookkeeping.  Layers plus
remainder add up to the untraced whole.

Run it on a span file written by ``run.py --trace 1``::

    python3 perfbench/trace_summary.py .perfbench/trace-write-churn.csv
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from tracing import CALIBRATION, UNITS


class Summary:
    """Counts, total and self time per span name and per context.

    The *context* of a span is the innermost unit span enclosing it (see
    :data:`tracing.UNITS`), so ``self_ns("durability.flush",
    "replication.session")`` is flush time spent inside sync sessions,
    as opposed to inside puts or compactions.  Times are corrected for
    the tracing overhead, ``whole_ns - untraced_ns`` charged equally to
    every span and split inside/outside in the ratio ``split`` (see the
    module docstring), and the benchmark's calibrations
    (:data:`tracing.CALIBRATION` spans) are taken out of the spans they
    interrupt.
    """

    def __init__(
        self,
        names: Sequence[str],
        spans: Sequence[Sequence[int]],
        whole_ns: float,
        untraced_ns: float,
        split: Tuple[float, float] = (1.0, 1.0),
    ) -> None:
        calibration = names.index(CALIBRATION) if CALIBRATION in names else -1
        counted = sum(1 for span in spans if span[0] != calibration)
        #: Tracing cost charged to each span; never below zero, so a traced
        #: copy that ran faster than the untraced ones charges nothing.
        self.span_ns = max(0.0, whole_ns - untraced_ns) / max(1, counted)
        inside = self.span_ns * split[0] / sum(split)
        outside = self.span_ns - inside
        units = {index for index, name in enumerate(names) if name in UNITS}
        child_ns = [0] * len(spans)
        children = [0] * len(spans)
        descendants = [0] * len(spans)
        #: Calibration time inside each span, at any depth.
        hidden = [0] * len(spans)
        context = [-1] * len(spans)
        for index, (name_id, parent, _op, start, end) in enumerate(spans):
            if parent >= 0:
                child_ns[parent] += end - start
                context[index] = context[parent]
                if name_id != calibration:
                    children[parent] += 1
            if name_id in units:
                context[index] = name_id
        # A parent is opened before its children, so one backward pass
        # counts every span's descendants and hidden calibration time.
        for index in range(len(spans) - 1, -1, -1):
            name_id, parent, _op, start, end = spans[index]
            if parent < 0:
                continue
            if name_id == calibration:
                hidden[parent] += end - start
            else:
                descendants[parent] += descendants[index] + 1
                hidden[parent] += hidden[index]
        # (name, context name) -> [spans, total ns, self ns]
        cells: Dict[Tuple[str, Optional[str]], List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for index, (name_id, _parent, _op, start, end) in enumerate(spans):
            if name_id == calibration:
                continue
            key = (names[name_id], names[context[index]] if context[index] >= 0 else None)
            cell = cells[key]
            cell[0] += 1
            cell[1] += end - start - hidden[index] - inside - descendants[index] * (inside + outside)
            cell[2] += end - start - child_ns[index] - inside - children[index] * outside
        self.cells = dict(cells)
        self.spans = counted
        self.whole_ns = whole_ns
        self.untraced_ns = untraced_ns
        #: The untraced whole no layer accounts for.
        self.remainder_ns = untraced_ns - sum(self_ns for _, self_ns in self.layers().values())

    def _sum(self, name: str, context: Optional[str], field: int) -> float:
        return sum(
            cell[field]
            for (cell_name, cell_context), cell in self.cells.items()
            if cell_name == name and (context is None or cell_context == context)
        )

    def count(self, name: str, context: Optional[str] = None) -> int:
        return int(self._sum(name, context, 0))

    def total_ns(self, name: str, context: Optional[str] = None) -> float:
        return self._sum(name, context, 1)

    def self_ns(self, name: str, context: Optional[str] = None) -> float:
        return self._sum(name, context, 2)

    def layers(self) -> Dict[str, List[float]]:
        """``layer -> [spans, self ns]``."""
        table: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        for (name, _context), cell in self.cells.items():
            row = table[name.split(".", 1)[0]]
            row[0] += cell[0]
            row[1] += cell[2]
        return dict(table)

    def table(self) -> str:
        """The per-layer table: self time, span counts, shares, remainder."""
        untraced_ns = self.untraced_ns
        lines = [f"{'layer / span':<46}{'spans':>10}{'self ms':>12}{'share':>9}"]

        def row(label: str, spans: int, self_ns: float) -> str:
            return f"{label:<46}{spans:>10}{self_ns / 1e6:>12.2f}{self_ns / untraced_ns:>8.1%}"

        for layer, (spans, self_ns) in sorted(self.layers().items()):
            lines.append(row(layer, int(spans), self_ns))
            for (name, context), cell in sorted(self.cells.items(), key=lambda item: (item[0][0], item[0][1] or "")):
                if name.split(".", 1)[0] == layer:
                    label = f"  {name}" + (f" @{context}" if context and context != name else "")
                    lines.append(row(label, int(cell[0]), cell[2]))
        lines.append(row("remainder (load loop, event loop)", 0, self.remainder_ns))
        lines.append(row("untraced whole", 0, untraced_ns))
        lines.append(
            f"traced whole {self.whole_ns / 1e6:.2f} ms, tracing overhead "
            f"{self.whole_ns / untraced_ns - 1:+.1%}, {self.span_ns:.0f} ns per span"
        )
        return "\n".join(lines)


def load_csv(path) -> Tuple[List[str], List[List[int]]]:
    """Read a span file written by :meth:`tracing.Tracer.write_csv`."""
    names: List[str] = []
    ids: Dict[str, int] = {}
    spans: List[List[int]] = []
    with open(path, newline="") as handle:
        for record in csv.DictReader(handle):
            name = record["name"]
            if name not in ids:
                ids[name] = len(names)
                names.append(name)
            spans.append(
                [
                    ids[name],
                    int(record["parent"]),
                    int(record["op"]),
                    int(record["start_ns"]),
                    int(record["end_ns"]),
                ]
            )
    return names, spans


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spans", type=Path, help="span CSV written by run.py --trace 1")
    args = parser.parse_args(argv)
    sidecar = args.spans.with_suffix(".json")
    if not args.spans.exists() or not sidecar.exists():
        print(f"error: need {args.spans} and {sidecar}", file=sys.stderr)
        return 2
    meta = json.loads(sidecar.read_text())
    names, spans = load_csv(args.spans)
    print(f"{meta['workload']} seed {meta['seed']}")
    summary = Summary(names, spans, meta["whole_ns"], meta["untraced_ns"], tuple(meta["span_split_ns"]))
    print(summary.table())
    return 0


if __name__ == "__main__":
    sys.exit(main())
