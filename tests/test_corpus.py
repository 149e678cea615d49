import io
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from handover_ie.corpus import (
    LabelScheme,
    LabelingError,
    ParseError,
    Record,
    RecordSet,
    convert_standoff,
    default_synthetic_scheme,
    dump_scheme,
    evaluated_classes,
    generate_synthetic,
    load_scheme,
    parse_records,
    serialize_records,
)
from handover_ie.evaluation import label_category

from helpers import as_saved, corruptions, draw_offset

TWO_RECORD_FIXTURE = (
    "# id: doc-a\n"
    "Mary\tPATIENT INTRODUCTION/Given Names/ Initials\n"
    "is\tN.A.\n"
    "stable\tMY SHIFT/Status\n"
    "\n"
    "# id: doc-b\n"
    "review\tN.A.\n"
    "tomorrow\tAPPOINTMENTS/Date and Time: Day\n"
    "\n"
)


def test_parse_empty_stream():
    rs, scheme = parse_records("")
    assert rs.records == ()
    assert scheme.labels == ("N.A.",)


def test_parse_two_record_fixture_matches_hand_transcription():
    rs, scheme = parse_records(TWO_RECORD_FIXTURE)
    assert len(rs.records) == 2
    a, b = rs.records
    assert a.id == "doc-a"
    assert a.words == ("Mary", "is", "stable")
    assert [scheme.labels[l] for l in a.labels] == [
        "PATIENT INTRODUCTION/Given Names/ Initials", "N.A.", "MY SHIFT/Status",
    ]
    assert b.id == "doc-b"
    assert b.words == ("review", "tomorrow")
    assert scheme.labels[b.labels[0]] == "N.A."
    assert scheme.labels[b.labels[1]] == "APPOINTMENTS/Date and Time: Day"


def test_parse_accepts_file_object_and_missing_trailing_blank():
    rs, _ = parse_records(io.StringIO("w\tN.A.\nx\tN.A."))
    assert len(rs.records) == 1
    assert rs.records[0].words == ("w", "x")
    assert rs.records[0].id == "r0000"


def test_string_and_file_input_break_lines_alike(tmp_path):
    # str.splitlines would also break inside these words
    scheme = LabelScheme(labels=("N.A.", "a"))
    words = ("a\x85b", "c\u2028d", "e\x0bf", "g\x0ch", "i\x1cj")
    rs = RecordSet(split="train", records=(Record(id="u", words=words, labels=(1, 0, 0, 1, 0)),))
    text = serialize_records(rs, scheme)
    assert parse_records(text, scheme=scheme)[0] == rs
    assert parse_records(io.StringIO(text), scheme=scheme)[0] == rs

    crlf = TWO_RECORD_FIXTURE.replace("\n", "\r\n")
    path = tmp_path / "crlf.tsv"
    path.write_bytes(crlf.encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        from_file = parse_records(fh)
    assert parse_records(crlf) == from_file
    assert from_file == parse_records(TWO_RECORD_FIXTURE)


def test_parse_malformed_line_reports_line_number():
    with pytest.raises(ParseError) as err:
        parse_records("ok\tN.A.\nbroken line\n")
    assert err.value.line_no == 2
    with pytest.raises(ParseError) as err:
        parse_records("a\tb\tc\n")
    assert err.value.line_no == 1
    # a word holding a space could never be a BPE symbol sequence in merges.txt
    with pytest.raises(ParseError) as err:
        parse_records("ok\tN.A.\nno way\tN.A.\n")
    assert err.value.line_no == 2


def test_parse_rejects_an_id_comment_after_the_last_record():
    with pytest.raises(ParseError, match="id comment for an empty record") as err:
        parse_records("w\tN.A.\n\n# id: a\n")
    assert err.value.line_no == 3


def test_parse_rejects_an_id_comment_closed_by_a_blank_line():
    # the id would otherwise be dropped and the record below named r0000
    with pytest.raises(ParseError, match="id comment for an empty record") as err:
        parse_records("# id: a\n\nw\tN.A.\n")
    assert err.value.line_no == 1


def test_parse_rejects_a_second_id_comment_for_one_record():
    with pytest.raises(ParseError) as err:
        parse_records("# id: a\n# id: b\nw\tN.A.\n")
    assert err.value.line_no == 2


def test_parse_rejects_a_repeated_id_at_its_id_line():
    with pytest.raises(ParseError, match="duplicate record id 'a'") as err:
        parse_records("# id: a\nx\tN.A.\n\n# id: a\ny\tN.A.\n")
    assert err.value.line_no == 4


def test_parse_rejects_an_id_repeating_a_positional_name_at_its_first_word():
    # a record without an id line is named by its position: the second is r0001
    with pytest.raises(ParseError, match="duplicate record id 'r0001'") as err:
        parse_records("# id: r0001\na\tN.A.\n\nb\tN.A.\nc\tN.A.\n")
    assert err.value.line_no == 4
    # and an id line may repeat such a name, at its own line
    with pytest.raises(ParseError, match="duplicate record id 'r0000'") as err:
        parse_records("a\tN.A.\n\n# id: r0000\nb\tN.A.\n")
    assert err.value.line_no == 3


def test_parse_unknown_label_with_fixed_scheme():
    scheme = LabelScheme(labels=("N.A.", "x"))
    with pytest.raises(LabelingError):
        parse_records("w\tmystery\n", scheme=scheme)


def test_parse_builds_scheme_with_na_even_if_unobserved():
    rs, scheme = parse_records("w\talpha\n")
    assert scheme.na_label == "N.A."
    assert set(scheme.labels) == {"N.A.", "alpha"}
    assert rs.records[0].labels == (scheme.index("alpha"),)


@st.composite
def record_sets(draw):
    scheme = draw(st.sampled_from([
        LabelScheme(labels=("N.A.", "a", "b")),
        LabelScheme(labels=("N.A.", "x")),
    ]))
    n = draw(st.integers(1, 4))
    records = []
    for i in range(n):
        words = draw(st.lists(st.text("abcdef#:", min_size=1, max_size=5),
                              min_size=1, max_size=6))
        labels = draw(st.lists(st.integers(0, len(scheme.labels) - 1),
                               min_size=len(words), max_size=len(words)))
        records.append(Record(id=f"rec{i}", words=tuple(words), labels=tuple(labels)))
    return RecordSet(split="train", records=tuple(records)), scheme


@given(record_sets())
@settings(max_examples=60)
def test_serialize_parse_round_trip(rs_scheme):
    rs, scheme = rs_scheme
    text = serialize_records(rs, scheme)
    back, _ = parse_records(text, scheme=scheme, split=rs.split)
    assert back == rs


@given(record_sets(), st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_corrupted_records_file_is_rejected_or_reaches_a_fixed_point(rs_scheme, data):
    # the reader is lenient (a missing final blank line, a dropped id), so a
    # corrupted file need not re-save to itself; what it parses to must
    rs, scheme = rs_scheme
    raw = serialize_records(rs, scheme).encode("utf-8")
    for corrupted in corruptions(raw, draw_offset(data, raw)):
        for fixed in (None, scheme):
            try:
                value = parse_records(corrupted.decode("utf-8"), scheme=fixed)
            except ValueError:
                continue
            assert parse_records(serialize_records(*value), scheme=fixed) == value


def test_evaluated_classes_single_class_corpus():
    scheme = LabelScheme(labels=("N.A.", "a"))
    rs = RecordSet(split="train", records=(
        Record(id="r", words=("w", "x"), labels=(0, 0)),
    ))
    assert evaluated_classes(rs, scheme) == {0}


def test_evaluated_classes_ignores_test_only_labels():
    scheme = LabelScheme(labels=("N.A.", "A", "B", "C"))
    train = RecordSet(split="train", records=(
        Record(id="t", words=("w", "x", "y"), labels=(0, 1, 2)),
    ))
    test = RecordSet(split="test", records=(
        Record(id="s", words=("w", "x", "y"), labels=(0, 1, 3)),
    ))
    evaluated = evaluated_classes(train, scheme)
    assert evaluated == {0, 1, 2}
    assert scheme.index("C") not in evaluated
    assert {scheme.labels[i] for i in evaluated_classes(test, scheme)} == {"N.A.", "A", "C"}


@given(st.data())
@settings(max_examples=40)
def test_evaluated_classes_monotone_under_more_records(data):
    scheme = LabelScheme(labels=("N.A.", "a", "b", "c"))
    base = data.draw(record_sets_for(scheme, max_records=3))
    extra = data.draw(record_sets_for(scheme, max_records=2))
    bigger = RecordSet(split="train", records=tuple(
        Record(id=f"n{i}", words=r.words, labels=r.labels)
        for i, r in enumerate(base.records + extra.records)
    ))
    assert evaluated_classes(base, scheme) <= evaluated_classes(bigger, scheme)


def record_sets_for(scheme, max_records):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_records))
        records = []
        for i in range(n):
            words = draw(st.lists(st.text("abc", min_size=1, max_size=3),
                                  min_size=1, max_size=4))
            labels = draw(st.lists(st.integers(0, len(scheme.labels) - 1),
                                   min_size=len(words), max_size=len(words)))
            records.append(Record(id=f"r{i}", words=tuple(words), labels=tuple(labels)))
        return RecordSet(split="train", records=tuple(records))
    return build()


def test_record_length_invariant():
    with pytest.raises(ValueError):
        Record(id="bad", words=("a",), labels=(0, 1))
    with pytest.raises(ValueError):
        Record(id="empty", words=(), labels=())
    # words no records, features or vocabulary file can hold
    for word in ("", "x\ty", "x\ny", "x\ry"):
        for words in ((word,), ("a", word), (word, "b")):
            with pytest.raises(ValueError):
                Record(id="w", words=words, labels=(0,) * len(words))


def test_scheme_validation_and_categories():
    with pytest.raises(ValueError):
        LabelScheme(labels=("N.A.", "dup", "dup"))
    with pytest.raises(ValueError, match="empty label scheme"):
        LabelScheme(labels=())
    # the first label is the N.A. label, whatever its name, as in a scheme file
    for labels in (("a", "b"), ("alpha", "N.A.", "bravo")):
        scheme = LabelScheme(labels=labels)
        assert (scheme.na_label, scheme.na_id) == (labels[0], 0)
        assert load_scheme(dump_scheme(scheme)) == scheme
    scheme = LabelScheme(labels=("N.A.", "MY SHIFT/Status", "odd"))
    assert label_category(scheme, "MY SHIFT/Status") == ("MY SHIFT", "Status")
    assert label_category(scheme, "odd") == ("N.A.", "odd")
    assert label_category(scheme, "N.A.") == ("N.A.", "N.A.")


def test_scheme_rejects_a_label_holding_a_line_feed():
    with pytest.raises(ValueError, match="holds a line break"):
        LabelScheme(labels=("N.A.", "a\nb"))


def test_scheme_rejects_a_label_holding_a_carriage_return():
    # a CSV report writes \r unquoted, and a reader would split its row there
    with pytest.raises(ValueError, match="holds a line break"):
        LabelScheme(labels=("N.A.", "a\rb"))


def test_scheme_rejects_a_label_a_records_file_cannot_hold():
    # a tab would split the label column of its word lines, and an empty
    # label field is a parse error
    for label in ("a\tb", "\t", "", "N.A.\t"):
        with pytest.raises(ValueError, match="is empty, holds a tab"):
            LabelScheme(labels=("N.A.", label))
    with pytest.raises(ValueError, match="holds a tab"):
        load_scheme("N.A.\na\tb\n")


def test_record_rejects_an_id_a_records_file_cannot_hold():
    # the id line ends at a line break and is stripped, so " a" would read
    # back as "a" and "a\nb" would not parse
    for rid in ("a\nb", "a\rb", "\n", " a", "a ", "\x85x", "x\u2028", "\ta", "a\x1c"):
        with pytest.raises(ValueError, match="holds a line break or whitespace"):
            Record(id=rid, words=("w",), labels=(0,))
    with pytest.raises(ValueError, match="holds a line break or whitespace"):
        convert_standoff(" doc", "w", [], LabelScheme(labels=("N.A.",)))
    # any other id survives its file, a tab or a line separator inside it included
    scheme = LabelScheme(labels=("N.A.",))
    rs = RecordSet(split="train", records=tuple(
        Record(id=rid, words=("w",), labels=(0,)) for rid in ("", "a\tb", "a\x85b", "# id: x")))
    assert parse_records(serialize_records(rs, scheme), scheme) == (rs, scheme)


def test_scheme_file_round_trip():
    scheme = LabelScheme(labels=("N.A.", "b", "a"))
    assert load_scheme(dump_scheme(scheme)) == scheme


def test_scheme_file_rejects_an_empty_line():
    for text, line_no in (("N.A.\n\na\n", 2), ("\nN.A.\n", 1), ("N.A.\na\n\n", 3),
                          ("N.A.\r\n\r\na\r\n", 2)):
        with pytest.raises(ValueError, match=f"labels line {line_no}: empty label"):
            load_scheme(text)


# label names hold any character but a tab or a line break; surrogates cannot
# be written as UTF-8
SCHEME_LABELS = st.lists(
    st.text(st.characters(codec="utf-8", blacklist_characters="\t\n\r"), min_size=1,
            max_size=6),
    min_size=1, max_size=6, unique=True)


@given(SCHEME_LABELS, st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_corrupted_scheme_file_is_rejected_or_round_trips(labels, data):
    scheme = LabelScheme(labels=tuple(labels))
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.txt"), Path(tmp, "second.txt")
        first.write_text(dump_scheme(scheme), encoding="utf-8")
        raw = first.read_bytes()
        for corrupted in corruptions(raw, draw_offset(data, raw)):
            first.write_bytes(corrupted)
            try:
                back = load_scheme(first.read_text(encoding="utf-8"))
            except ValueError:
                continue
            second.write_text(dump_scheme(back), encoding="utf-8")
            assert second.read_bytes() == as_saved(corrupted)


# any character, surrogates included, with the ones the file formats give a
# meaning drawn often
ANY_TEXT = st.text(st.one_of(st.sampled_from("\t\n\r \x85\u2028\x1c#:"), st.characters()),
                   max_size=6)


def _accepted(make, *args) -> bool:
    try:
        make(*args)
    except ValueError:
        return False
    return True


@st.composite
def accepted_records_and_schemes(draw):
    """A record set and a scheme from whatever values the types accept."""
    labels = [l for l in draw(st.lists(ANY_TEXT, min_size=1, max_size=5, unique=True))
              if _accepted(LabelScheme, (l,))]
    assume(labels)
    scheme = LabelScheme(labels=tuple(labels))
    ids = [i for i in draw(st.lists(ANY_TEXT, max_size=4, unique=True))
           if _accepted(Record, i, ("w",), (0,))]
    records = []
    for rid in ids:
        words = [w for w in draw(st.lists(ANY_TEXT, min_size=1, max_size=5))
                 if _accepted(Record, "", (w,), (0,))]
        assume(words)
        labs = draw(st.lists(st.integers(0, len(labels) - 1), min_size=len(words),
                             max_size=len(words)))
        records.append(Record(id=rid, words=tuple(words), labels=tuple(labs)))
    return RecordSet(split="train", records=tuple(records)), scheme


@given(accepted_records_and_schemes())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_every_accepted_record_set_and_scheme_survives_its_file(rs_scheme):
    rs, scheme = rs_scheme
    assert parse_records(serialize_records(rs, scheme), scheme) == (rs, scheme)
    assert load_scheme(dump_scheme(scheme)) == scheme


def test_relabel_keeps_everything_but_the_labels():
    rs = RecordSet(split="validation", records=(
        Record(id="b", words=("x", "y"), labels=(0, 0)),
        Record(id="a", words=("z",), labels=(1,)),
    ))
    out = rs.relabel([[2, 1], (0,)])
    assert out.split == "validation"
    assert [(r.id, r.words) for r in out.records] == [("b", ("x", "y")), ("a", ("z",))]
    assert [r.labels for r in out.records] == [(2, 1), (0,)]
    assert RecordSet(split="test", records=()).relabel([]) == RecordSet(split="test", records=())
    for labels in ([[2, 1]], [[2, 1], [0], [0]], [[2], [0]], [[2, 1], [0, 0]]):
        with pytest.raises(ValueError):
            rs.relabel(labels)


def test_synthetic_empty():
    assert len(generate_synthetic(0, default_synthetic_scheme(), seed=3).records) == 0


def test_synthetic_same_seed_identical_serialization():
    scheme = default_synthetic_scheme()
    a = serialize_records(generate_synthetic(12, scheme, seed=9), scheme)
    b = serialize_records(generate_synthetic(12, scheme, seed=9), scheme)
    assert a == b
    c = serialize_records(generate_synthetic(12, scheme, seed=10), scheme)
    assert a != c


def test_synthetic_seed7_matches_golden_histogram():
    # frozen from a reviewed run of this generator
    scheme = default_synthetic_scheme()
    rs = generate_synthetic(50, scheme, seed=7)
    hist = Counter(scheme.labels[l] for r in rs.records for l in r.labels)
    assert dict(hist) == {
        "N.A.": 400, "alpha": 133, "bravo": 74, "carol": 52, "delta": 39, "echo": 30,
    }
    assert set(hist) == set(scheme.labels)


def test_synthetic_covers_every_label_when_enough_records():
    scheme = default_synthetic_scheme()
    rs = generate_synthetic(len(scheme.labels), scheme, seed=0)
    seen = {l for r in rs.records for l in r.labels}
    assert seen == set(range(len(scheme.labels)))


def test_convert_standoff_overlap_rules():
    scheme = LabelScheme(labels=("N.A.", "x", "y"))
    text = "alpha beta gamma"
    rec = convert_standoff("d1", text, [(0, 5, "x"), (11, 16, "y")], scheme)
    assert rec.words == ("alpha", "beta", "gamma")
    assert [scheme.labels[l] for l in rec.labels] == ["x", "N.A.", "y"]
    # partial overlap still labels the word; earliest span wins
    rec = convert_standoff("d2", "abcdef", [(2, 4, "y"), (0, 3, "x")], scheme)
    assert [scheme.labels[l] for l in rec.labels] == ["x"]


@pytest.mark.parametrize("start, end", [(-3, 2), (40, 60), (9, 4), (5, 5), (0, 15)])
def test_convert_standoff_rejects_a_span_outside_the_text(start, end):
    scheme = LabelScheme(labels=("N.A.", "name"))
    with pytest.raises(ValueError, match=f"^document 'd': span {start}-{end} is not inside "
                                         r"the text \(0 <= start < end <= 14\)$"):
        convert_standoff("d", "Mary rests now", [(0, 4, "name"), (start, end, "name")], scheme)
    # the text's first and last characters are inside
    assert convert_standoff("d", "Mary rests now", [(0, 14, "name")], scheme).labels == (1, 1, 1)


def test_convert_standoff_cuts_words_by_the_word_rule():
    scheme = LabelScheme(labels=("N.A.", "name"))
    rec = convert_standoff("d", "Mary\x85Jones rests", [(0, 10, "name")], scheme)
    assert rec.words == ("Mary\x85Jones", "rests")
    assert rec.labels == (1, 0)
    rec = convert_standoff("d", "a\u2028b\x0bc\td\r\ne", [], scheme)
    assert rec.words == ("a\u2028b\x0bc", "d", "e")
