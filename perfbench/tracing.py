"""Spans around the benchmark's calls into the library's public functions.

A span records a name, its start and end (``time.perf_counter`` seconds),
the span that caused it, the instance being worked on and the round it
belongs to (one set-up or one pass over the corpus).  Spans are kept in
memory and written out once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Iterator, TypeVar

T = TypeVar("T")


@dataclass
class Span:
    ident: int
    name: str
    start: float
    end: float
    parent: int | None
    instance: str | None
    round: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and per-round counters for one run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, dict[str, float]] = {}
        self.round = "setup0"
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, instance: str | None = None) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        if instance is None and parent is not None:
            instance = parent.instance
        sp = Span(
            len(self.spans),
            name,
            time.perf_counter(),
            0.0,
            None if parent is None else parent.ident,
            instance,
            self.round,
        )
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn: Callable[..., T], *args, **kwargs) -> T:
        with self.span(name):
            return fn(*args, **kwargs)

    def add(self, name: str, value: float) -> None:
        row = self.counts.setdefault(self.round, {})
        row[name] = row.get(name, 0) + value

    def maximum(self, name: str, value: float) -> None:
        row = self.counts.setdefault(self.round, {})
        row[name] = max(row.get(name, value), value)

    def seconds_per_round(self, name: str, kind: str) -> list[float]:
        """Summed seconds of the named spans in each round of one kind."""
        rounds = sorted({sp.round for sp in self.spans if sp.round.startswith(kind)})
        totals = dict.fromkeys(rounds, 0.0)
        for sp in self.spans:
            if sp.name == name and sp.round in totals:
                totals[sp.round] += sp.seconds
        return [totals[r] for r in rounds]

    def median_seconds(self, name: str) -> float:
        """Median per set-up plus median per pass of the named spans."""
        total = 0.0
        for kind in ("setup", "pass"):
            per_round = self.seconds_per_round(name, kind)
            if per_round:
                total += statistics.median(per_round)
        return total

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for sp in self.spans:
                fh.write(json.dumps(asdict(sp), sort_keys=True) + "\n")
