"""Word-level confusion counting, per-class and macro P/R/F1, baselines.

Conventions: metrics are counted per word (one gold and one predicted
label each); any 0/0 ratio evaluates to 0; macro values are unweighted
means over the evaluated class set, with macro F1 the mean of per-class
F1 rather than the harmonic mean of macro P and macro R; main-category
rows pool the counts of their evaluated subclasses.

Label names may carry a main-category prefix (``MAIN CATEGORY/Subclass``)
that drives per-category reporting; labels without a recognized prefix
are grouped under N.A. ``label_category`` alone reads that prefix.
"""
from __future__ import annotations

import csv
import io
import json
import re
import string
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .corpus import LabelScheme, RecordSet

MAIN_CATEGORIES = ("PATIENT INTRODUCTION", "MY SHIFT", "APPOINTMENTS", "MEDICATION",
                   "FUTURE CARE")
NA_CATEGORY = "N.A."


class AlignmentError(ValueError):
    """Predicted records do not line up with the gold records they label."""


def _normalize_category(name: str) -> str:
    return re.sub(r"[\s_]+", " ", name).strip().upper()


_CATEGORY_LOOKUP = {_normalize_category(c): c for c in MAIN_CATEGORIES}


def label_category(scheme: LabelScheme, label: str) -> tuple[str, str]:
    """(main category, row name) of a label in the report. A label spelled
    ``CATEGORY/rest`` with a recognized category prefix (any case, spaces
    or underscores) is row ``rest`` of that category; everything else,
    N.A. itself included, is its own row under the N.A. category."""
    if label != scheme.na_label and "/" in label:
        prefix, rest = label.split("/", 1)
        category = _CATEGORY_LOOKUP.get(_normalize_category(prefix))
        if category is not None:
            return category, rest.strip()
    return NA_CATEGORY, label


def _by_category(scheme: LabelScheme, ids: Iterable[int]) -> Iterator[tuple[str, list[int]]]:
    """(category, member ids in the given order) for each category with a
    member, in report order: the main categories, then N.A."""
    members: dict[str, list[int]] = {cat: [] for cat in (*MAIN_CATEGORIES, NA_CATEGORY)}
    for i in ids:
        members[label_category(scheme, scheme.labels[i])[0]].append(i)
    yield from ((cat, m) for cat, m in members.items() if m)


@dataclass(frozen=True, slots=True)
class ClassCounts:
    """Word-level tp/fp/fn per label id of the scheme."""

    tp: tuple[int, ...]
    fp: tuple[int, ...]
    fn: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(v < 0 for v in self.tp + self.fp + self.fn):
            raise ValueError("negative count")


@dataclass(frozen=True, slots=True)
class EvalReport:
    """P/R/F1 of each evaluated class, keyed by label in scheme-id order,
    their unweighted means, and the pooled rows of each main category."""

    per_class: dict[str, tuple[float, float, float]]
    macro_precision: float
    macro_recall: float
    macro_f1: float
    categories: dict[str, tuple[int, int, int, float, float, float]]


def confusion_counts(gold: RecordSet, pred: RecordSet, scheme: LabelScheme) -> ClassCounts:
    if len(gold.records) != len(pred.records):
        raise AlignmentError(
            f"{len(gold.records)} gold records vs {len(pred.records)} predicted"
        )
    n = len(scheme.labels)
    tp = [0] * n
    fp = [0] * n
    fn = [0] * n
    for g, p in zip(gold.records, pred.records):
        if g.id != p.id or g.words != p.words:
            raise AlignmentError(f"record {g.id!r} does not match prediction {p.id!r}")
        for y, yhat in zip(g.labels, p.labels):
            if y == yhat:
                tp[y] += 1
            else:
                fn[y] += 1
                fp[yhat] += 1
    return ClassCounts(tp=tuple(tp), fp=tuple(fp), fn=tuple(fn))


def prf_from_counts(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def build_report(
    counts: ClassCounts,
    scheme: LabelScheme,
    evaluated_ids: frozenset[int] | set[int],
    include_na: bool = True,
) -> EvalReport:
    if not include_na:
        evaluated_ids = set(evaluated_ids) - {scheme.na_id}
    ids = [i for i in range(len(scheme.labels)) if i in evaluated_ids]
    if not ids:
        raise ValueError("empty evaluated class set")
    per_class = {scheme.labels[i]: prf_from_counts(counts.tp[i], counts.fp[i], counts.fn[i])
                 for i in ids}
    mp, mr, mf = (sum(column) / len(ids) for column in zip(*per_class.values()))

    categories: dict[str, tuple[int, int, int, float, float, float]] = {}
    for cat, members in _by_category(scheme, ids):
        ctp, cfp, cfn = (sum(c[i] for i in members) for c in (counts.tp, counts.fp, counts.fn))
        categories[cat] = (ctp, cfp, cfn, *prf_from_counts(ctp, cfp, cfn))
    return EvalReport(
        per_class=per_class,
        macro_precision=mp,
        macro_recall=mr,
        macro_f1=mf,
        categories=categories,
    )


# --- trivial baselines ------------------------------------------------------

def baseline_random(
    records: RecordSet, seed: int, evaluated_ids: frozenset[int] | set[int]
) -> RecordSet:
    """Uniform seeded draws over the evaluated label set for every word."""
    if not evaluated_ids:
        raise ValueError("no evaluated labels to draw from")
    choices = sorted(evaluated_ids)
    rng = np.random.Generator(np.random.PCG64(seed))
    return records.relabel(
        [choices[int(k)] for k in rng.integers(len(choices), size=len(rec.words))]
        for rec in records.records)


def baseline_majority(records: RecordSet, majority_label: int) -> RecordSet:
    """Assign the configured label to every word."""
    return records.relabel((majority_label,) * len(r.words) for r in records.records)


def majority_label(train: RecordSet, scheme: LabelScheme) -> int:
    """Most frequent training label other than N.A., by word count."""
    freq = [0] * len(scheme.labels)
    for rec in train.records:
        for lab in rec.labels:
            freq[lab] += 1
    freq[scheme.na_id] = -1
    return int(np.argmax(freq))


# --- report emission --------------------------------------------------------

FORMATS = ("table", "csv", "json")


def emit_report(report: EvalReport, counts: ClassCounts, fmt: str, scheme: LabelScheme) -> str:
    if fmt == "json":
        return _emit_json(report, counts, scheme)
    if fmt == "csv":
        return _emit_csv(report, counts, scheme)
    if fmt == "table":
        return _emit_table(report, counts, scheme)
    raise ValueError(f"unknown report format {fmt!r}; expected one of {FORMATS}")


def _emit_json(report: EvalReport, counts: ClassCounts, scheme: LabelScheme) -> str:
    obj = {
        "labels": list(scheme.labels),
        "counts": {
            name: {"tp": counts.tp[i], "fp": counts.fp[i], "fn": counts.fn[i]}
            for i, name in enumerate(scheme.labels)
        },
        "evaluated": list(report.per_class),
        "per_class": {
            name: {"precision": p, "recall": r, "f1": f}
            for name, (p, r, f) in report.per_class.items()
        },
        "macro_precision": report.macro_precision,
        "macro_recall": report.macro_recall,
        "macro_f1": report.macro_f1,
        "categories": {
            cat: {"tp": tp, "fp": fp, "fn": fn, "precision": p, "recall": r, "f1": f}
            for cat, (tp, fp, fn, p, r, f) in report.categories.items()
        },
    }
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _emit_csv(report: EvalReport, counts: ClassCounts, scheme: LabelScheme) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("class", "tp", "fp", "fn", "precision", "recall", "f1"))
    for i, name in enumerate(scheme.labels):
        if name in report.per_class:
            writer.writerow((name, counts.tp[i], counts.fp[i], counts.fn[i],
                             *map(repr, report.per_class[name])))
    return out.getvalue()


def _emit_table(report: EvalReport, counts: ClassCounts, scheme: LabelScheme) -> str:
    width = max([28] + [len(label_category(scheme, n)[1]) + 2 for n in scheme.labels]
                + [len(c) + 3 for c in report.categories])

    def row(title: str, cells: tuple, prf: tuple) -> str:
        metrics = "".join(f"{v:>9}" if isinstance(v, str) else f"{v:>9.4f}" for v in prf)
        return f"{title:<{width}}" + "".join(f"{c:>7}" for c in cells) + metrics

    header = row("CATEGORY", ("WORDS", "TP", "FP", "FN"), ("P", "R", "F1"))
    rule = "-" * len(header)
    lines = [header, rule]
    shown = [i for i, name in enumerate(scheme.labels)
             if name in report.per_class or counts.tp[i] + counts.fp[i] + counts.fn[i] > 0]
    for letter, (cat, members) in zip(string.ascii_uppercase, _by_category(scheme, shown)):
        title = f"{letter}. {cat}"
        if cat in report.categories:
            tp, fp, fn, *prf = report.categories[cat]
            lines.append(row(title, (tp + fn, tp, fp, fn), prf))
        else:
            lines.append(title)
        for i in members:
            name = scheme.labels[i]
            tag = "" if name in report.per_class else " *"
            tp, fp, fn = counts.tp[i], counts.fp[i], counts.fn[i]
            lines.append(row(f"  {label_category(scheme, name)[1]}{tag}", (tp + fn, tp, fp, fn),
                             report.per_class.get(name, ("-", "-", "-"))))
    lines.append(rule)
    lines.append(row(f"TOTAL (macro over {len(report.per_class)} classes)", ("",) * 4,
                     (report.macro_precision, report.macro_recall, report.macro_f1)))
    lines.append("rows marked * are outside the evaluated class set")
    return "\n".join(lines) + "\n"
