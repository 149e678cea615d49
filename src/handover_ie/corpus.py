"""Word-level data model for handover-form sequence labeling.

Records are word sequences carrying one form-slot label per word. The
on-disk layout is CoNLL-style TSV: one ``word<TAB>label`` line per word,
a blank line between records, and an optional ``# id: <name>`` comment
line opening a record.
"""
from __future__ import annotations

import io
import itertools
import os
import re
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, TextIO

import numpy as np

SPLITS = ("train", "validation", "test")
# the N.A. label of a scheme that parse_records builds from a file's labels
NA_LABEL = "N.A."

_ID_COMMENT = "# id:"
# The one word rule of records and the tokenizer: a word is nonempty and
# holds none of these, which break the line and column structure of the
# records TSV, a CRF checkpoint's features file and merges.txt. Every other
# character, Unicode whitespace such as \x85 or \u2028 included, is text.
WORD_BREAKS = re.compile(r"[\t\n\r ]")
# one word of free text under that rule
WORD = re.compile(r"[^\t\n\r ]+")


class ParseError(ValueError):
    """Malformed record file; carries the 1-based offending line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class LabelingError(ValueError):
    """A label is not a member of the governing scheme."""


@dataclass(frozen=True, slots=True)
class LabelScheme:
    """Ordered label inventory whose first label is its N.A. label.

    Label ids are positions in ``labels``, so N.A. is id 0 and a scheme
    file keeps every id. A label is nonempty and holds no tab, LF or CR.
    """

    labels: tuple[str, ...]
    na_id = 0  # not a field: the id of the N.A. label

    def __post_init__(self) -> None:
        if not self.labels:
            raise ValueError("empty label scheme")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate label names in scheme")
        # files break lines at \n and \r, and a records file ends a column at a tab
        bad = [label for label in self.labels if not label or re.search("[\t\n\r]", label)]
        if bad:
            raise ValueError(f"label {bad[0]!r} is empty, holds a tab or holds a line break")

    @property
    def na_label(self) -> str:
        return self.labels[0]

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise LabelingError(f"unknown label {label!r}") from None


@dataclass(frozen=True, slots=True)
class Record:
    """One handover document: words plus one label id per word. Its id holds
    no line break and no whitespace at either end: its ``# id:`` line is stripped."""

    id: str
    words: tuple[str, ...]
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.words) != len(self.labels):
            raise ValueError(
                f"record {self.id!r}: {len(self.words)} words vs {len(self.labels)} labels"
            )
        if not self.words:
            raise ValueError(f"record {self.id!r} is empty")
        if "" in self.words or WORD_BREAKS.search("".join(self.words)):
            raise ValueError(
                f"record {self.id!r}: a word is empty or holds a space, tab or line break")
        if self.id != self.id.strip() or "\n" in self.id or "\r" in self.id:
            raise ValueError(
                f"record id {self.id!r} holds a line break or whitespace at either end")


@dataclass(frozen=True, slots=True)
class RecordSet:
    split: str
    records: tuple[Record, ...]

    def __post_init__(self) -> None:
        if self.split not in SPLITS:
            raise ValueError(f"split must be one of {SPLITS}, got {self.split!r}")
        ids = [r.id for r in self.records]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate record ids in set")

    def relabel(self, labels: Iterable[Sequence[int]]) -> "RecordSet":
        """The same records in order, each with its new label ids: how every
        method's prediction is built from its input."""
        return RecordSet(split=self.split, records=tuple(
            Record(id=r.id, words=r.words, labels=tuple(labs))
            for r, labs in zip(self.records, labels, strict=True)))


def validate_against_scheme(rs: RecordSet, scheme: LabelScheme) -> None:
    n = len(scheme.labels)
    for rec in rs.records:
        for lab in rec.labels:
            if not 0 <= lab < n:
                raise LabelingError(f"record {rec.id!r}: label id {lab} outside scheme")


def read_lines(stream: str | TextIO | Iterable[str]) -> Iterable[str]:
    """Lines without their ends; a string is read as a text file is, so
    lines break at \\n, \\r and \\r\\n only, never at \\x85, \\u2028 and the like."""
    if isinstance(stream, str):
        stream = io.StringIO(stream, newline=None)
    return (line.rstrip("\n") for line in stream)


def read_text(path: str | os.PathLike) -> str:
    """The one reader of every file the program reads: a UTF-8 file's
    characters after its byte-order mark, if any, with no newline
    translation; a file that is not UTF-8 is a ValueError naming it."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: {err}") from None


def parse_records(
    stream: str | TextIO | Iterable[str],
    scheme: Optional[LabelScheme] = None,
    split: str = "train",
) -> tuple[RecordSet, LabelScheme]:
    """Parse TSV records; when no scheme is given, build one from the
    observed labels: N.A. first, the rest sorted. A record without an id
    line is named ``r{i:04d}`` by its position i (from 0) in the file.

    Raises ParseError (with line number) for structurally bad lines and
    repeated record ids, and LabelingError for labels outside a fixed scheme.
    """
    # each record's words and label names by its id, in file order
    raw: dict[str, tuple[list[str], list[str]]] = {}
    # the open record: its id and the line of its id comment, words, labels
    rid: str | None = None
    id_line = 0
    words: list[str] = []
    names: list[str] = []
    # one trailing blank line closes the last record
    for line_no, line in enumerate(itertools.chain(read_lines(stream), [""]), start=1):
        if line == "":
            if words:
                if rid is None:
                    # named by its position; its word lines end at this blank line
                    rid, id_line = f"r{len(raw):04d}", line_no - len(words)
                if rid in raw:
                    raise ParseError(f"duplicate record id {rid!r}", id_line)
                raw[rid] = (words, names)
            elif rid is not None:
                raise ParseError("id comment for an empty record", id_line)
            rid, words, names = None, [], []
            continue
        # no word holds the space of the comment, so a word line never starts with it
        if line.startswith(_ID_COMMENT):
            if words or rid is not None:
                raise ParseError("id comment inside a record", line_no)
            rid, id_line = line[len(_ID_COMMENT):].strip(), line_no
            continue
        if "\t" not in line:
            raise ParseError(f"expected 2 tab-separated columns, got 1: {line!r}", line_no)
        cols = line.split("\t")
        if len(cols) != 2:
            raise ParseError(f"expected 2 tab-separated columns, got {len(cols)}", line_no)
        word, label = cols
        if not word:
            raise ParseError("empty word field", line_no)
        if WORD_BREAKS.search(word):
            raise ParseError(f"word {word!r} holds a space or line break", line_no)
        if not label:
            raise ParseError("empty label field", line_no)
        words.append(word)
        names.append(label)

    if scheme is None:
        observed = {name for _, labs in raw.values() for name in labs}
        scheme = LabelScheme(labels=(NA_LABEL, *sorted(observed - {NA_LABEL})))

    records = tuple(
        Record(id=rid, words=tuple(ws), labels=tuple(scheme.index(name) for name in labs))
        for rid, (ws, labs) in raw.items())
    return RecordSet(split=split, records=records), scheme


def serialize_records(rs: RecordSet, scheme: LabelScheme) -> str:
    """Inverse of parse_records; blank line terminates every record."""
    out = []
    for rec in rs.records:
        out.append(f"{_ID_COMMENT} {rec.id}\n")
        for word, lab in zip(rec.words, rec.labels):
            out.append(f"{word}\t{scheme.labels[lab]}\n")
        out.append("\n")
    return "".join(out)


def load_scheme(text: str) -> LabelScheme:
    """One nonempty label per line; the first line is the N.A. label."""
    labels = list(read_lines(text))
    if "" in labels:
        raise ValueError(f"labels line {labels.index('') + 1}: empty label")
    return LabelScheme(labels=tuple(labels))


def dump_scheme(scheme: LabelScheme) -> str:
    return "".join(label + "\n" for label in scheme.labels)


def evaluated_classes(train: RecordSet, scheme: LabelScheme) -> frozenset[int]:
    """Label ids occurring at least once in the training set.

    This set parameterizes all macro averaging downstream.
    """
    validate_against_scheme(train, scheme)
    return frozenset(lab for rec in train.records for lab in rec.labels)


# --- synthetic corpus -------------------------------------------------------

_FILLER = (
    "the", "a", "patient", "is", "was", "on", "ward", "with", "stable",
    "obs", "at", "night", "plan", "home", "review", "today", "and",
)


def default_synthetic_scheme() -> LabelScheme:
    return LabelScheme(labels=(NA_LABEL, "alpha", "bravo", "carol", "delta", "echo"))


def _cue_pool(label: str, idx: int, size: int = 4) -> list[str]:
    slug = re.sub(r"[^a-z0-9]+", "", label.lower()) or "cls"
    return [f"{slug}{idx}w{k}" for k in range(size)]


def generate_synthetic(n_records: int, scheme: LabelScheme, seed: int) -> RecordSet:
    """Deterministic synthetic corpus: per-class cue words plus N.A. filler.

    Non-N.A. classes draw cue words from disjoint pools with Zipf-like
    frequencies, so cue surface forms identify the class and simple
    learners can beat the trivial baselines. Every scheme label occurs
    at least once when n_records >= len(scheme.labels).
    """
    if n_records < 0:
        raise ValueError("n_records must be >= 0")
    rng = np.random.Generator(np.random.PCG64(seed))
    na = scheme.na_id
    cue_ids = [i for i in range(len(scheme.labels)) if i != na]
    pools = {i: _cue_pool(scheme.labels[i], i) for i in cue_ids}
    zipf = np.array([1.0 / (k + 1) for k in range(len(cue_ids))])
    zipf /= zipf.sum() if len(cue_ids) else 1.0

    records = []
    for i in range(n_records):
        n = int(rng.integers(8, 21))
        words, labels = [], []
        for _ in range(n):
            if cue_ids and rng.random() < 0.45:
                cls = cue_ids[int(rng.choice(len(cue_ids), p=zipf))]
                words.append(pools[cls][int(rng.integers(len(pools[cls])))])
                labels.append(cls)
            else:
                words.append(_FILLER[int(rng.integers(len(_FILLER)))])
                labels.append(na)
        if i < len(scheme.labels) and i not in labels:
            pos = int(rng.integers(n))
            labels[pos] = i
            words[pos] = _FILLER[0] if i == na else pools[i][0]
        records.append(Record(id=f"synth-{i:04d}", words=tuple(words), labels=tuple(labels)))
    return RecordSet(split="train", records=tuple(records))


# --- standoff adapter -------------------------------------------------------

def convert_standoff(
    doc_id: str,
    text: str,
    spans: Iterable[tuple[int, int, str]],
    scheme: LabelScheme,
) -> Record:
    """Convert a raw document plus character-offset span annotations.

    Words are the runs of text between WORD_BREAKS, as in a records file,
    so U+0085, U+2028 and other Unicode whitespace stay inside a word; a
    word takes the label of the first (by start, then end) span
    overlapping its character range, else N.A. Every span must lie in the
    text, 0 <= start < end <= len(text), and its label in the scheme.
    """
    ordered = []
    for a, b, name in sorted(spans, key=lambda s: (s[0], s[1])):
        if not 0 <= a < b <= len(text):
            raise ValueError(f"document {doc_id!r}: span {a}-{b} is not inside the text "
                             f"(0 <= start < end <= {len(text)})")
        if name not in scheme.labels:
            raise LabelingError(
                f"document {doc_id!r}: span {a}-{b} has unknown label {name!r}")
        ordered.append((a, b, scheme.index(name)))
    words, labels = [], []
    for m in WORD.finditer(text):
        s, e = m.span()
        label = scheme.na_id
        for a, b, span_label in ordered:
            if a < e and s < b:
                label = span_label
                break
        words.append(m.group())
        labels.append(label)
    if not words:
        raise ValueError(f"document {doc_id!r} has no words")
    return Record(id=doc_id, words=tuple(words), labels=tuple(labels))
