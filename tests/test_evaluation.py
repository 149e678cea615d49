import csv
import io
import math

import pytest
from hypothesis import given, settings, strategies as st

from handover_ie.corpus import LabelScheme, Record, RecordSet
from handover_ie.evaluation import (
    AlignmentError,
    ClassCounts,
    baseline_majority,
    baseline_random,
    build_report,
    confusion_counts,
    emit_report,
    label_category,
    macro_average,
    majority_label,
    prf_from_counts,
)

from helpers import parse_report_json
from reference_tables import (
    REFERENCE_CATEGORY_METRICS,
    REFERENCE_COUNTS,
    REFERENCE_METRICS,
    REFERENCE_TOTALS,
    reference_scheme_labels,
)


def _rs(split, *label_rows):
    records = tuple(
        Record(id=f"r{i}", words=tuple(f"w{j}" for j in range(len(labels))), labels=labels)
        for i, labels in enumerate(label_rows)
    )
    return RecordSet(split=split, records=records)


@pytest.fixture
def small_scheme():
    return LabelScheme(labels=("N.A.", "a", "b"))


def test_confusion_perfect_prediction(small_scheme):
    gold = _rs("test", (0, 1, 2, 1))
    counts = confusion_counts(gold, gold, small_scheme)
    assert sum(counts.fp) == 0 and sum(counts.fn) == 0
    assert sum(counts.tp) == 4


def test_confusion_total_miss(small_scheme):
    gold = _rs("test", (0, 0, 1))
    pred = _rs("test", (1, 1, 2))
    counts = confusion_counts(gold, pred, small_scheme)
    assert sum(counts.tp) == 0
    assert counts.fn == (2, 1, 0)
    assert counts.fp == (0, 2, 1)


def test_confusion_hand_tally(small_scheme):
    # 8 words, tallied by hand:      gold         pred
    gold = _rs("test", (0, 1, 1, 2, 2, 0, 1, 0))
    pred = _rs("test", (0, 1, 2, 2, 1, 1, 1, 0))
    counts = confusion_counts(gold, pred, small_scheme)
    assert counts.tp == (2, 2, 1)
    assert counts.fp == (0, 2, 1)
    assert counts.fn == (1, 1, 1)
    # each gold word is a tp or an fn of its label
    assert tuple(t + f for t, f in zip(counts.tp, counts.fn)) == (3, 3, 2)


def test_confusion_alignment_errors(small_scheme):
    gold = _rs("test", (0, 1))
    with pytest.raises(AlignmentError):
        confusion_counts(gold, _rs("test", (0, 1), (0,)), small_scheme)
    renamed = RecordSet(split="test", records=(
        Record(id="other", words=gold.records[0].words, labels=(0, 1)),
    ))
    with pytest.raises(AlignmentError):
        confusion_counts(gold, renamed, small_scheme)


def test_prf_published_rows():
    p, r, f = prf_from_counts(2090, 370, 562)
    assert abs(p - 0.8496) < 5e-4 and abs(r - 0.7881) < 5e-4 and abs(f - 0.8177) < 5e-4
    p, r, f = prf_from_counts(62, 0, 116)
    assert abs(p - 1.0) < 5e-4 and abs(r - 0.3483) < 5e-4 and abs(f - 0.5167) < 5e-4


def test_prf_zero_conventions():
    assert prf_from_counts(0, 0, 0) == (0.0, 0.0, 0.0)
    assert prf_from_counts(0, 3, 0) == (0.0, 0.0, 0.0)
    assert prf_from_counts(5, 0, 0) == (1.0, 1.0, 1.0)


def test_reference_counts_reproduce_reference_metrics():
    # every published per-class row is consistent with its counts, except
    # the three flagged FUTURE CARE rows which are kept out of the fixture
    for label, (tp, fp, fn) in REFERENCE_COUNTS.items():
        if label not in REFERENCE_METRICS:
            assert label.startswith("FUTURE CARE/")
            continue
        got = prf_from_counts(tp, fp, fn)
        want = REFERENCE_METRICS[label]
        for g, w in zip(got, want):
            assert abs(g - w) < 5e-4, (label, got, want)


def test_reference_category_rows_are_pooled_counts():
    scheme = LabelScheme(labels=reference_scheme_labels())
    for cat, want in REFERENCE_CATEGORY_METRICS.items():
        members = [c for c in REFERENCE_COUNTS if label_category(scheme, c)[0] == cat]
        tp = sum(REFERENCE_COUNTS[c][0] for c in members)
        fp = sum(REFERENCE_COUNTS[c][1] for c in members)
        fn = sum(REFERENCE_COUNTS[c][2] for c in members)
        got = prf_from_counts(tp, fp, fn)
        for g, w in zip(got, want):
            assert abs(g - w) < 5e-4, (cat, got, want)


def test_macro_two_point_mean():
    per_class = {"a": (1.0, 1.0, 1.0), "b": (0.0, 0.0, 0.0)}
    assert macro_average(per_class, ("a", "b")) == (0.5, 0.5, 0.5)


def test_macro_single_class_identity():
    per_class = {"a": (0.25, 0.5, 1 / 3)}
    assert macro_average(per_class, ("a",)) == (0.25, 0.5, 1 / 3)


def test_macro_empty_set_rejected():
    with pytest.raises(ValueError):
        macro_average({}, ())


def test_macro_f1_is_mean_of_f1_not_harmonic():
    # the published totals only cohere with mean-of-per-class-F1 averaging:
    # harmonic(macro P, macro R) lands near 0.481, far from the 0.438 total
    mp, mr, mf = REFERENCE_TOTALS["fine-tuned-encoder"]
    harmonic = 2 * mp * mr / (mp + mr)
    assert abs(harmonic - 0.481) < 1e-3
    assert abs(harmonic - mf) > 0.04
    per_class = {"a": (0.3, 0.9, 0.45), "b": (0.7, 0.1, 0.175)}
    _, _, f = macro_average(per_class, ("a", "b"))
    assert f == pytest.approx((0.45 + 0.175) / 2)


@given(st.permutations(["a", "b", "c"]))
@settings(max_examples=20)
def test_macro_permutation_invariant(order):
    per_class = {"a": (0.1, 0.2, 0.3), "b": (0.4, 0.5, 0.6), "c": (0.7, 0.8, 0.9)}
    base = macro_average(per_class, ("a", "b", "c"))
    got = macro_average(per_class, tuple(order))
    assert all(math.isclose(x, y) for x, y in zip(base, got))


@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=40))
@settings(max_examples=60)
def test_misclassified_words_equal_fp_and_fn_sums(pairs):
    scheme = LabelScheme(labels=("N.A.", "a", "b"))
    gold = _rs("test", tuple(g for g, _ in pairs))
    pred = _rs("test", tuple(p for _, p in pairs))
    counts = confusion_counts(gold, pred, scheme)
    wrong = sum(1 for g, p in pairs if g != p)
    assert sum(counts.fp) == wrong
    assert sum(counts.fn) == wrong
    gold_total = [sum(1 for g, _ in pairs if g == y) for y in range(len(scheme.labels))]
    assert [t + f for t, f in zip(counts.tp, counts.fn)] == gold_total


def test_baseline_majority_misses_everything_else(small_scheme):
    gold = _rs("test", (1, 1, 0, 2))
    pred = baseline_majority(gold, small_scheme.index("b"))
    counts = confusion_counts(gold, pred, small_scheme)
    report = build_report(counts, small_scheme, {0, 1, 2})
    assert report.per_class["a"] == (0.0, 0.0, 0.0)
    assert report.per_class["N.A."] == (0.0, 0.0, 0.0)
    assert report.per_class["b"][1] == 1.0


def test_baseline_random_degenerate_single_class(small_scheme):
    gold = _rs("test", (0, 0, 0))
    pred = baseline_random(gold, seed=5, evaluated_ids={0})
    assert pred.records[0].labels == (0, 0, 0)
    counts = confusion_counts(gold, pred, small_scheme)
    assert build_report(counts, small_scheme, {0}).macro_f1 == 1.0


def test_baseline_random_seeded_and_restricted(small_scheme):
    gold = _rs("test", tuple([0] * 50))
    a = baseline_random(gold, seed=3, evaluated_ids={0, 2})
    b = baseline_random(gold, seed=3, evaluated_ids={0, 2})
    assert a == b
    assert set(a.records[0].labels) <= {0, 2}


def test_majority_label_excludes_na(small_scheme):
    train = _rs("train", (0, 0, 0, 1, 1, 2))
    assert majority_label(train, small_scheme) == 1


def _reference_report():
    scheme = LabelScheme(labels=reference_scheme_labels())
    tp, fp, fn = zip(*(REFERENCE_COUNTS[l] for l in scheme.labels))
    counts = ClassCounts(tp=tp, fp=fp, fn=fn)
    report = build_report(counts, scheme, frozenset(range(len(scheme.labels))))
    return report, counts, scheme


def test_build_report_category_pooling_matches_reference():
    report, _, _ = _reference_report()
    for cat, want in REFERENCE_CATEGORY_METRICS.items():
        _, _, _, p, r, f = report.categories[cat]
        assert abs(p - want[0]) < 5e-4 and abs(r - want[1]) < 5e-4 and abs(f - want[2]) < 5e-4


def test_json_round_trip_is_byte_identical():
    report, counts, scheme = _reference_report()
    text = emit_report(report, counts, "json", scheme)
    back_report, back_counts = parse_report_json(text)
    assert back_report == report
    assert back_counts == counts
    again = emit_report(back_report, back_counts, "json", scheme)
    assert again == text


def test_csv_report_rows_match_counts():
    report, counts, scheme = _reference_report()
    # a label holding a comma, a quote and a line separator stays one cell
    odd = LabelScheme(labels=(*scheme.labels, 'x,"y"\x85z'))
    odd_counts = ClassCounts(tp=(*counts.tp, 3), fp=(*counts.fp, 1), fn=(*counts.fn, 2))
    odd_report = build_report(odd_counts, odd, frozenset(range(len(odd.labels))))
    text = emit_report(odd_report, odd_counts, "csv", odd)
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert rows[0] == ["class", "tp", "fp", "fn", "precision", "recall", "f1"]
    assert [row[0] for row in rows[1:]] == list(odd_report.evaluated)
    for name, *cells in rows[1:]:
        i = odd.labels.index(name)
        assert [int(c) for c in cells[:3]] == [odd_counts.tp[i], odd_counts.fp[i],
                                               odd_counts.fn[i]]
        assert tuple(float(c) for c in cells[3:]) == odd_report.per_class[name]


def test_table_matches_golden_fixture(tmp_path):
    import pathlib

    report, counts, scheme = _reference_report()
    text = emit_report(report, counts, "table", scheme)
    golden = pathlib.Path(__file__).parent / "data" / "golden_report_table.txt"
    assert text == golden.read_text(encoding="utf-8")


def test_minimal_one_class_report_renders():
    scheme = LabelScheme(labels=("N.A.",))
    counts = ClassCounts(tp=(3,), fp=(0,), fn=(0,))
    report = build_report(counts, scheme, {0})
    text = emit_report(report, counts, "table", scheme)
    assert "N.A." in text and "1.0000" in text


def test_unknown_format_rejected():
    report, counts, scheme = _reference_report()
    with pytest.raises(ValueError):
        emit_report(report, counts, "yaml", scheme)


def test_macro_can_exclude_na(small_scheme):
    gold = _rs("test", (0, 0, 1, 2))
    pred = _rs("test", (0, 0, 1, 1))
    counts = confusion_counts(gold, pred, small_scheme)
    with_na = build_report(counts, small_scheme, {0, 1, 2})
    without = build_report(counts, small_scheme, {0, 1, 2}, include_na=False)
    assert "N.A." in with_na.evaluated
    assert "N.A." not in without.evaluated
    assert len(without.evaluated) == 2
    assert without.macro_f1 == pytest.approx(
        sum(without.per_class[c][2] for c in without.evaluated) / 2
    )


def test_report_pins_unevaluated_rows_odd_prefixes_and_quoted_cells():
    # MEDICATION/Dose is counted but not evaluated, as a label of the test
    # split only is; APPOINTMENTS/Time has no count and is not shown
    scheme = LabelScheme(labels=("N.A.", "APPOINTMENTS/Time", "MEDICATION/Dose",
                                 "my_shift / Input", 'x,"y"'))
    counts = ClassCounts(tp=(5, 0, 0, 3, 1), fp=(1, 0, 2, 1, 0), fn=(2, 0, 1, 0, 1))
    report = build_report(counts, scheme, {0, 3, 4})
    assert emit_report(report, counts, "table", scheme) == "\n".join([
        "CATEGORY                      WORDS     TP     FP     FN        P        R       F1",
        "-----------------------------------------------------------------------------------",
        "A. MY SHIFT                       3      3      1      0   0.7500   1.0000   0.8571",
        "  Input                           3      3      1      0   0.7500   1.0000   0.8571",
        "B. MEDICATION",
        "  Dose *                          1      0      2      1        -        -        -",
        "C. N.A.                           9      6      1      3   0.8571   0.6667   0.7500",
        "  N.A.                            7      5      1      2   0.8333   0.7143   0.7692",
        '  x,"y"                           2      1      0      1   1.0000   0.5000   0.6667',
        "-----------------------------------------------------------------------------------",
        "TOTAL (macro over 3 classes)                               0.8611   0.7381   0.7643",
        "rows marked * are outside the evaluated class set",
    ]) + "\n"
    assert emit_report(report, counts, "csv", scheme) == "\n".join([
        "class,tp,fp,fn,precision,recall,f1",
        "N.A.,5,1,2,0.8333333333333334,0.7142857142857143,0.7692307692307692",
        "my_shift / Input,3,1,0,0.75,1.0,0.8571428571428571",
        '"x,""y""",1,0,1,1.0,0.5,0.6666666666666666',
    ]) + "\n"
