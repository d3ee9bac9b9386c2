"""In-memory spans recorded around calls into the program's layers.

A span has a name (``<module>.<function>``), start and end (perf_counter
seconds), the index of its parent span, the id of the operation it belongs
to, and a count of work done at that boundary (matvecs for an eigensolve).
Spans are kept in a list and written out once, at the end.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from statistics import median


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str
    count: int = 0


class Recorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = Span(name, time.perf_counter(), 0.0, parent, op)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = time.perf_counter()

    def select(self, name: str, ops: set[str] | None = None) -> list[Span]:
        """The spans called ``name`` (of the given operations), in recording order."""
        return [s for s in self.spans if s.name == name and (ops is None or s.op in ops)]

    def durations(self, name: str, ops: set[str] | None = None) -> list[float]:
        return [s.end - s.start for s in self.select(name, ops)]

    def duration(self, name: str, op: str) -> float:
        (value,) = self.durations(name, {op})
        return value

    def median(self, name: str, ops: set[str] | None = None) -> float:
        return median(self.durations(name, ops))

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def rows(self) -> list[dict]:
        return [asdict(s) for s in self.spans]

    def merge(self, rows: list[dict]) -> None:
        """Append another recorder's spans, keeping their parent links."""
        offset = len(self.spans)
        for row in rows:
            parent = row["parent"]
            self.spans.append(Span(**{**row, "parent": None if parent is None else parent + offset}))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [{**row, "self": t} for row, t in zip(self.rows(), self.self_times())]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


def eigen_metrics(rec: Recorder, n: int) -> dict[str, float]:
    """spectra.leading_eigenpair timings and the matvec counts its spans carry.

    Bytes are computed, not measured: 8 n(n+1)/2 per matvec, the packed
    buffer each dspmv call reads.
    """
    total_s = sum(rec.durations("spectra.leading_eigenpair"))
    matvecs = sum(s.count for s in rec.select("spectra.leading_eigenpair"))
    computed_gb = 8.0 * n * (n + 1) / 2 * matvecs / 1e9
    return {
        "spectra.leading_eigenpair.s": rec.median("spectra.leading_eigenpair"),
        "spectra.leading_eigenpair.matvecs": matvecs,
        "spectra.leading_eigenpair.s_per_matvec": total_s / matvecs,
        "spectra.leading_eigenpair.gb_per_s_computed": computed_gb / total_s,
    }


def inference_self_s(rec: Recorder) -> float:
    """Median over operations of run_test minus its rank and eigensolve spans."""
    ops = {s.op for s in rec.select("inference.run_test")}
    return median(
        rec.duration("inference.run_test", op)
        - rec.duration("ranking.rank_transform", op)
        - rec.duration("spectra.leading_eigenpair", op)
        for op in ops
    )


def kind_metrics(rec: Recorder, n: int, kind: str, ops: set[str] | None = None) -> dict[str, float]:
    """rank_transform and run_test timings on one kind of input (continuous or ties)."""
    rank_s = rec.median("ranking.rank_transform", ops)
    return {
        f"ranking.rank_transform.s.{kind}": rank_s,
        f"ranking.rank_transform.ns_per_pair.{kind}": rank_s * 1e9 / (n * (n - 1) // 2),
        f"inference.run_test.s.{kind}": rec.median("inference.run_test", ops),
    }
