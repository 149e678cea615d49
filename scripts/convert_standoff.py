#!/usr/bin/env python3
"""Convert standoff-annotated documents to the word-per-line TSV format.

Expects a directory of `<name>.txt` / `<name>.ann` pairs, both UTF-8.
Each .ann line is `start<TAB>end<TAB>label` with character offsets into
the .txt file, counted after its byte-order mark if it has one; words are
whitespace tokens and take the label of the first overlapping span, or
N.A. Use this to adapt span-annotated corpora (the public
handover set ships per-record documents with span annotations) to the
toolkit's record format.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from handover_ie.cli import read_scheme, run, write_out
from handover_ie.corpus import (
    RecordSet, convert_standoff, read_lines, read_text, serialize_records)


def read_spans(path: Path) -> list[tuple[int, int, str]]:
    spans = []
    for line_no, line in enumerate(read_lines(read_text(path)), 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(f"{path}:{line_no}: expected start<TAB>end<TAB>label")
        try:
            start, end = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"{path}:{line_no}: start and end must be integers") from None
        spans.append((start, end, parts[2]))
    return spans


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--input-dir", required=True)
    parser.add_argument("--scheme", required=True, help="label scheme file (N.A. first)")
    parser.add_argument("--out", help="output TSV (default stdout)")
    args = parser.parse_args()

    scheme = read_scheme(args.scheme)
    records = []
    for txt in sorted(Path(args.input_dir).glob("*.txt")):
        ann = txt.with_suffix(".ann")
        if not ann.exists():
            raise FileNotFoundError(f"missing annotation file {ann}")
        # each CRLF stays two characters, as the .ann offsets count it
        records.append(convert_standoff(txt.stem, read_text(txt), read_spans(ann), scheme))
    rs = RecordSet(split="train", records=tuple(records))
    write_out(serialize_records(rs, scheme), args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(run(main))
