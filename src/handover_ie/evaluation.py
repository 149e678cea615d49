"""Word-level confusion counting, per-class and macro P/R/F1, baselines.

Conventions: metrics are counted per word (one gold and one predicted
label each); any 0/0 ratio evaluates to 0; macro values are unweighted
means over the evaluated class set, with macro F1 the mean of per-class
F1 rather than the harmonic mean of macro P and macro R; main-category
rows pool the counts of their evaluated subclasses.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .corpus import NA_CATEGORY, MAIN_CATEGORIES, LabelScheme, RecordSet
from .tokenizer import AlignmentError


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
    evaluated: tuple[str, ...]
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


def macro_average(
    per_class: dict[str, tuple[float, float, float]],
    evaluated: tuple[str, ...],
) -> tuple[float, float, float]:
    if not evaluated:
        raise ValueError("empty evaluated class set")
    ps = [per_class[c][0] for c in evaluated]
    rs = [per_class[c][1] for c in evaluated]
    fs = [per_class[c][2] for c in evaluated]
    n = len(evaluated)
    return sum(ps) / n, sum(rs) / n, sum(fs) / n


def build_report(
    counts: ClassCounts,
    scheme: LabelScheme,
    evaluated_ids: frozenset[int] | set[int],
    include_na: bool = True,
) -> EvalReport:
    if not include_na:
        evaluated_ids = set(evaluated_ids) - {scheme.na_id}
    ids = [i for i in range(len(scheme.labels)) if i in evaluated_ids]
    evaluated = tuple(scheme.labels[i] for i in ids)
    per_class = {scheme.labels[i]: prf_from_counts(counts.tp[i], counts.fp[i], counts.fn[i])
                 for i in ids}
    mp, mr, mf = macro_average(per_class, evaluated)

    categories: dict[str, tuple[int, int, int, float, float, float]] = {}
    for cat in (*MAIN_CATEGORIES, NA_CATEGORY):
        members = [i for i in ids if scheme.main_category(scheme.labels[i]) == cat]
        if not members:
            continue
        ctp = sum(counts.tp[i] for i in members)
        cfp = sum(counts.fp[i] for i in members)
        cfn = sum(counts.fn[i] for i in members)
        categories[cat] = (ctp, cfp, cfn, *prf_from_counts(ctp, cfp, cfn))
    return EvalReport(
        evaluated=evaluated,
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
        "evaluated": list(report.evaluated),
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
    lines = ["class,tp,fp,fn,precision,recall,f1"]
    for i, name in enumerate(scheme.labels):
        if name not in report.per_class:
            continue
        p, r, f = report.per_class[name]
        cell = name.replace('"', '""')
        cls = f'"{cell}"' if "," in name or '"' in name else name
        lines.append(f"{cls},{counts.tp[i]},{counts.fp[i]},{counts.fn[i]},{p!r},{r!r},{f!r}")
    return "\n".join(lines) + "\n"


def _subclass_name(scheme: LabelScheme, label: str) -> str:
    if scheme.main_category(label) != NA_CATEGORY and "/" in label:
        return label.split("/", 1)[1].strip()
    return label


def _emit_table(report: EvalReport, counts: ClassCounts, scheme: LabelScheme) -> str:
    width = max(
        [28]
        + [len(_subclass_name(scheme, n)) + 2 for n in scheme.labels]
        + [len(c) + 3 for c in report.categories]
    )
    header = (
        f"{'CATEGORY':<{width}}{'WORDS':>7}{'TP':>7}{'FP':>7}{'FN':>7}"
        f"{'P':>9}{'R':>9}{'F1':>9}"
    )
    rule = "-" * len(header)
    lines = [header, rule]
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    cat_no = 0
    for cat in (*MAIN_CATEGORIES, NA_CATEGORY):
        members = [
            (i, name) for i, name in enumerate(scheme.labels)
            if scheme.main_category(name) == cat
            and (name in report.per_class or counts.tp[i] + counts.fp[i] + counts.fn[i] > 0)
        ]
        if not members:
            continue
        if cat in report.categories:
            tp, fp, fn, p, r, f = report.categories[cat]
            words = tp + fn
            title = f"{letters[cat_no]}. {cat}"
            lines.append(
                f"{title:<{width}}{words:>7}{tp:>7}{fp:>7}{fn:>7}{p:>9.4f}{r:>9.4f}{f:>9.4f}"
            )
        else:
            lines.append(f"{letters[cat_no]}. {cat}")
        cat_no += 1
        for i, name in members:
            tag = "" if name in report.per_class else " *"
            row = f"  {_subclass_name(scheme, name)}{tag}"
            words = counts.tp[i] + counts.fn[i]
            if name in report.per_class:
                p, r, f = report.per_class[name]
                metr = f"{p:>9.4f}{r:>9.4f}{f:>9.4f}"
            else:
                metr = f"{'-':>9}{'-':>9}{'-':>9}"
            lines.append(
                f"{row:<{width}}{words:>7}{counts.tp[i]:>7}{counts.fp[i]:>7}{counts.fn[i]:>7}{metr}"
            )
    lines.append(rule)
    total = f"TOTAL (macro over {len(report.evaluated)} classes)"
    lines.append(
        f"{total:<{width}}{'':>7}{'':>7}{'':>7}{'':>7}"
        f"{report.macro_precision:>9.4f}{report.macro_recall:>9.4f}{report.macro_f1:>9.4f}"
    )
    lines.append("rows marked * are outside the evaluated class set")
    return "\n".join(lines) + "\n"
