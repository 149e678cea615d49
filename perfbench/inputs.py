"""Seeded benchmark inputs built from ``generate_synthetic`` records.

Plain synthetic records saturate: every cue word names its class, so the
toy encoder reaches macro F1 1.000. Here a fixed share of cue words is
replaced by a fresh surface that occurs nowhere else in the inputs, and a
class-specific trigger word is inserted before it, as "aged" precedes an
age and "named" a name in real handover notes. The fresh surface carries
no class hint, so its label must come from context, and the tokenizer
meets words it has never seen.
"""
from __future__ import annotations

import numpy as np

from handover_ie.corpus import LabelScheme, Record, RecordSet, generate_synthetic

TRIGGERS = ("named", "aged", "bed", "dose", "room", "ward", "team", "via")
FRESH_SHARE = 0.3
_LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))


class InputBuilder:
    """Makes every record set of one workload run; no fresh surface repeats."""

    def __init__(self, scheme: LabelScheme, seed: int):
        if len(scheme.labels) - 1 > len(TRIGGERS):
            raise ValueError(f"at most {len(TRIGGERS)} non-N.A. classes are supported")
        self.scheme = scheme
        self.seed = seed
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self._used: set[str] = set(TRIGGERS)
        self._sets = 0

    def _fresh_surface(self) -> str:
        while True:
            word = "".join(self.rng.choice(_LETTERS, size=int(self.rng.integers(5, 10))))
            if word not in self._used:
                self._used.add(word)
                return word

    def records(self, n: int, split: str) -> RecordSet:
        """n records; FRESH_SHARE of the cue words become trigger + fresh surface."""
        self._sets += 1
        base = generate_synthetic(n, self.scheme, seed=self.seed * 101 + self._sets)
        na = self.scheme.na_id
        self._used.update(w for r in base.records for w in r.words)
        cues = [(i, p) for i, r in enumerate(base.records)
                for p, lab in enumerate(r.labels) if lab != na]
        picked = set()
        if cues:
            k = round(FRESH_SHARE * len(cues))
            picked = {cues[j] for j in self.rng.choice(len(cues), size=k, replace=False)}
        trigger_of = {lab: TRIGGERS[j] for j, lab in
                      enumerate(i for i in range(len(self.scheme.labels)) if i != na)}
        out = []
        for i, rec in enumerate(base.records):
            words, labels = [], []
            for p, (word, lab) in enumerate(zip(rec.words, rec.labels)):
                if (i, p) in picked:
                    words += [trigger_of[lab], self._fresh_surface()]
                    labels += [na, lab]
                else:
                    words.append(word)
                    labels.append(lab)
            out.append(Record(id=f"{split}-{i:04d}", words=tuple(words), labels=tuple(labels)))
        return RecordSet(split=split, records=tuple(out))

    def notes(self, split: str, targets: list[int], size=lambda word: 1) -> RecordSet:
        """One note per target, cut from a stream of fresh records.

        A note takes words until their summed size reaches its target, and
        never ends on a trigger word, so its fresh surface stays with it.
        Fixed targets keep the amount of work the same whatever the seed.
        """
        stream: list[tuple[str, int]] = []
        out, k = [], 0
        for n, target in enumerate(targets):
            words, labels, total = [], [], 0
            while total < target or words[-1] in TRIGGERS:
                if k == len(stream):
                    stream += [(w, lab) for r in self.records(16, split).records
                               for w, lab in zip(r.words, r.labels)]
                word, lab = stream[k]
                k += 1
                words.append(word)
                labels.append(lab)
                total += size(word)
            out.append(Record(id=f"{split}-{n:04d}", words=tuple(words), labels=tuple(labels)))
        return RecordSet(split=split, records=tuple(out))


def input_stats(*sets: RecordSet) -> dict:
    """Word count and distinct-word share over the given record sets."""
    words = [w for rs in sets for r in rs.records for w in r.words]
    return {"words": len(words), "distinct_word_share": len(set(words)) / max(len(words), 1)}
