"""Spans around calls into handover_ie, recorded from outside the package.

A Tracer replaces chosen functions and methods with timing wrappers at
every handover_ie module namespace that binds them, so calls made through
``from .x import f`` aliases are caught too. Spans (name, start, end,
parent) are kept in memory in flat arrays and written out at the end.
Each span also carries the phase it ran in, set-up or round, so that
per-layer figures can be reported per set-up and per round.
"""
from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

SETUP, ROUND = 0, 1


class Tracer:
    """In-memory span recorder with install/uninstall of its wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.phase_of = array("b")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.phase = SETUP
        # per-phase counters for events that are not timed spans
        self.counters = (Counter(), Counter())
        self.distinct_words = (set(), set())
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording -----------------------------------------------------------

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span_wrapper(self, name: str, fn: Callable,
                     on_return: Optional[Callable[["Tracer", object], None]] = None) -> Callable:
        """Record every call of fn as a span; on_return sees each result."""
        nid = self._name(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._open[-1] if self._open else -1)
            self.phase_of.append(self.phase)
            self.start.append(clock())
            self.end.append(0.0)
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._open.pop()
            if on_return is not None:
                on_return(self, result)
            return result

        return wrapper

    def word_counter(self, name: str, fn: Callable) -> Callable:
        """Count calls of fn without timing them, and the distinct words passed first."""
        def wrapper(*args, **kwargs):
            self.counters[self.phase][name] += 1
            self.distinct_words[self.phase].add(args[0])
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------------

    def patch(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Wrap owner.attr, a module function or a class attribute.

        For a module function, every handover_ie module that binds the same
        object is patched as well.
        """
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(make(original.__func__))
        else:
            wrapped = make(original)
        if isinstance(owner, type):
            self._patches.append((owner, attr, original, wrapped))
            return
        for mod_name, mod in sorted(sys.modules.items()):
            if mod_name.split(".")[0] != "handover_ie":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original, wrapped))

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- aggregation -----------------------------------------------------------

    def totals(self, phase: int) -> "PhaseTotals":
        """Per-name call counts, total and self seconds, over one phase."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        total: Counter = Counter()
        self_s: Counter = Counter()
        under: Counter = Counter()
        for i in range(n):
            if self.phase_of[i] != phase:
                continue
            name = self.names[self.name_id[i]]
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            total[name] += dur
            self_s[name] += dur - child[i]
            p = self.parent[i]
            if p >= 0:
                under[(name, self.names[self.name_id[p]])] += dur
        return PhaseTotals(calls, total, self_s, under, self.counters[phase],
                           len(self.distinct_words[phase]))

    def write(self, path) -> None:
        doc = {
            "names": self.names,
            "fields": ["name", "parent", "phase", "start", "end"],
            "spans": [
                [self.name_id[i], self.parent[i], self.phase_of[i], self.start[i], self.end[i]]
                for i in range(len(self.start))
            ],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


@dataclass
class PhaseTotals:
    calls: Counter           # spans per name
    total: Counter           # seconds per name
    self_s: Counter          # seconds per name, minus the time in child spans
    under: Counter           # seconds per (name, parent name)
    counters: Counter        # untimed events
    distinct_words: int      # distinct words given to segment_word
