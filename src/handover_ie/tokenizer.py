"""Byte-pair-encoding subword tokenizer with word/subtoken label alignment.

Training repeatedly merges the corpus-wide most frequent adjacent symbol
pair (weighted by word frequency, ties broken lexicographically), so the
merge list is a deterministic function of the corpus. Merge rules operate
on bare symbol strings; the derived vocabulary stores every symbol twice,
as a word-initial piece and as a ``##``-prefixed continuation piece, which
keeps decoding and word alignment unambiguous. Inputs longer than the
encoder window are split into overlapping windows that never cut a word
unless a single word overflows the window by itself.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

from .corpus import WORD_BREAKS, read_lines

PAD, UNK, CLS, SEP = "[PAD]", "[UNK]", "[CLS]", "[SEP]"
SPECIALS = (PAD, UNK, CLS, SEP)
CONTINUATION = "##"
IGNORE_INDEX = -100


class AlignmentError(ValueError):
    """Labels do not line up word-for-word with the words they label."""


@dataclass(frozen=True, slots=True)
class MergeTable:
    """Ordered merge rules plus the derived subword vocabulary.

    ``segmentations`` memoizes segment_word per word for encode. It is private
    to each table (init=False, so dataclasses.replace starts it empty),
    unbounded, and grows with the distinct words the table encodes.
    """

    merges: tuple[tuple[str, str], ...]
    pieces: tuple[str, ...]          # piece string per token id
    vocab: dict[str, int]            # piece string -> token id
    lowercase: bool = False
    segmentations: dict[str, tuple[str, ...]] = field(
        default_factory=dict, init=False, compare=False, repr=False)

    @property
    def unk_id(self) -> int:
        return self.vocab[UNK]

    @property
    def cls_id(self) -> int:
        return self.vocab[CLS]

    @property
    def sep_id(self) -> int:
        return self.vocab[SEP]


@dataclass(frozen=True, slots=True)
class TokenizedSequence:
    """One encoder window: ids, surfaces, and word bookkeeping.

    Position 0 is [CLS] and the last position is [SEP]; word_index_of
    holds the absolute source-word index per position (None at specials);
    first_subtoken_of maps a covered word to the window position of its
    first subtoken (absent for continuation windows of an oversized word).
    """

    token_ids: tuple[int, ...]
    pieces: tuple[str, ...]
    word_index_of: tuple[Optional[int], ...]
    first_subtoken_of: Mapping[int, int]
    word_span: tuple[int, int]
    piece_span: tuple[int, int]


def _pair_counts(words: dict[tuple[str, ...], int]) -> Counter:
    counts: Counter = Counter()
    for seq, freq in words.items():
        for pair in zip(seq, seq[1:]):
            counts[pair] += freq
    return counts


def _merge_seq(seq: tuple[str, ...], pair: tuple[str, str]) -> tuple[str, ...]:
    merged = pair[0] + pair[1]
    out: list[str] = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and seq[i] == pair[0] and seq[i + 1] == pair[1]:
            out.append(merged)
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return tuple(out)


def best_pair(counts: Counter) -> Optional[tuple[str, str]]:
    """Highest-count pair; ties break toward the lexicographically least."""
    best = None
    best_count = 0
    for pair, count in counts.items():
        if count > best_count or (count == best_count and best is not None and pair < best):
            best, best_count = pair, count
    return best


def train_bpe(
    word_frequency: Mapping[str, int],
    num_merges: int,
    lowercase: bool = False,
) -> MergeTable:
    """Learn min(num_merges, available) merges from a word-frequency map.

    Pair statistics are updated incrementally: after each merge only the
    words containing the merged pair are recounted.
    """
    if num_merges < 0:
        raise ValueError("num_merges must be >= 0")
    if not word_frequency:
        raise ValueError("empty corpus")
    words: dict[tuple[str, ...], int] = {}
    for word, count in word_frequency.items():
        if count < 1:
            raise ValueError(f"count for {word!r} must be >= 1")
        if not word or WORD_BREAKS.search(word):
            raise ValueError(
                f"unsupported word {word!r}: empty or holds a space, tab or line break")
        key = tuple(word.lower() if lowercase else word)
        words[key] = words.get(key, 0) + count

    chars = sorted({ch for seq in words for ch in seq})
    counts = _pair_counts(words)
    merges: list[tuple[str, str]] = []
    for _ in range(num_merges):
        pair = best_pair(counts)
        if pair is None:
            break
        merges.append(pair)
        for seq in [s for s in words if _contains_pair(s, pair)]:
            freq = words.pop(seq)
            for p in zip(seq, seq[1:]):
                counts[p] -= freq
                if counts[p] <= 0:
                    del counts[p]
            new_seq = _merge_seq(seq, pair)
            words[new_seq] = words.get(new_seq, 0) + freq
            for p in zip(new_seq, new_seq[1:]):
                counts[p] += freq

    pieces: list[str] = list(SPECIALS)
    vocab: dict[str, int] = {p: i for i, p in enumerate(pieces)}
    for sym in chars + [a + b for a, b in merges]:
        for form in (sym, CONTINUATION + sym):
            if form not in vocab:
                vocab[form] = len(pieces)
                pieces.append(form)
    return MergeTable(
        merges=tuple(merges), pieces=tuple(pieces), vocab=vocab, lowercase=lowercase
    )


def _contains_pair(seq: tuple[str, ...], pair: tuple[str, str]) -> bool:
    return any(seq[i] == pair[0] and seq[i + 1] == pair[1] for i in range(len(seq) - 1))


def segment_word(word: str, table: MergeTable) -> list[str]:
    """Split one word into piece surfaces (continuation pieces ##-prefixed)."""
    if table.lowercase:
        word = word.lower()
    seq: tuple[str, ...] = tuple(word)
    for pair in table.merges:
        if len(seq) == 1:
            break
        if _contains_pair(seq, pair):
            seq = _merge_seq(seq, pair)
    return [sym if j == 0 else CONTINUATION + sym for j, sym in enumerate(seq)]


def _plan_windows(word_of_piece: list[int], capacity: int) -> list[tuple[int, int]]:
    """Overlapping [start, end) piece windows; boundaries snap to words."""
    n = len(word_of_piece)
    if n <= capacity:
        return [(0, n)]
    overlap = capacity // 4
    windows: list[tuple[int, int]] = []
    start = 0
    while True:
        end = min(start + capacity, n)
        if end < n:
            snapped = end
            while snapped > start and word_of_piece[snapped] == word_of_piece[snapped - 1]:
                snapped -= 1
            if snapped > start:
                end = snapped
        windows.append((start, end))
        if end == n:
            return windows
        nxt = end - overlap
        while nxt > 0 and word_of_piece[nxt] == word_of_piece[nxt - 1]:
            nxt -= 1
        if nxt <= start or min(nxt + capacity, n) <= end:
            nxt = end
        start = nxt


def encode(words: Sequence[str], table: MergeTable, max_len: int) -> list[TokenizedSequence]:
    """Tokenize a word sequence into one or more [CLS] ... [SEP] windows."""
    if max_len < 3:
        raise ValueError(f"max_len must be >= 3, got {max_len}")
    surfaces: list[str] = []
    word_of_piece: list[int] = []
    first_flat: list[int] = []
    memo = table.segmentations
    for w, word in enumerate(words):
        first_flat.append(len(surfaces))
        pcs = memo.get(word)
        if pcs is None:
            pcs = memo[word] = tuple(segment_word(word, table))
        surfaces.extend(pcs)
        word_of_piece.extend([w] * len(pcs))

    out: list[TokenizedSequence] = []
    for s, e in _plan_windows(word_of_piece, max_len - 2) if surfaces else [(0, 0)]:
        ids = [table.cls_id]
        pieces = [CLS]
        word_idx: list[Optional[int]] = [None]
        firsts: dict[int, int] = {}
        for k in range(s, e):
            w = word_of_piece[k]
            if first_flat[w] == k:
                firsts[w] = len(ids)
            ids.append(table.vocab.get(surfaces[k], table.unk_id))
            pieces.append(surfaces[k])
            word_idx.append(w)
        ids.append(table.sep_id)
        pieces.append(SEP)
        word_idx.append(None)
        # word_of_piece never decreases, so the window's end pieces bound its words
        span = (word_of_piece[s], word_of_piece[e - 1] + 1) if e > s else (0, 0)
        out.append(
            TokenizedSequence(
                token_ids=tuple(ids),
                pieces=tuple(pieces),
                word_index_of=tuple(word_idx),
                first_subtoken_of=firsts,
                word_span=span,
                piece_span=(s, e),
            )
        )
    return out


def align_labels(seq: TokenizedSequence, word_labels: Sequence[int]) -> list[int]:
    """Per-position labels: every subtoken of a word carries the word's
    label; specials receive IGNORE_INDEX and are excluded from the loss.

    word_labels holds one label per word of seq.word_span.
    """
    lo, hi = seq.word_span
    if len(word_labels) != hi - lo:
        raise AlignmentError(f"{len(word_labels)} word labels for {hi - lo} words in sequence")
    return [IGNORE_INDEX if w is None else word_labels[w - lo] for w in seq.word_index_of]


# --- file formats ------------------------------------------------------------

def dump_merges(table: MergeTable) -> str:
    return "".join(f"{a} {b}\n" for a, b in table.merges)


def dump_vocab(table: MergeTable) -> str:
    return "".join(f"{piece}\t{i}\n" for i, piece in enumerate(table.pieces))


def load_table(merges_text: str, vocab_text: str, lowercase: bool = False) -> MergeTable:
    """Read the text of merges.txt and vocab.txt, as dump_merges and
    dump_vocab write them: vocab line k reads exactly piece<TAB>k-1, every
    piece once; each merge line reads 'left right', and left, right and
    their join are all vocab pieces."""
    vocab: dict[str, int] = {}
    for line_no, line in enumerate(read_lines(vocab_text), 1):
        parts = line.split("\t")
        if len(parts) != 2 or parts[1] != str(line_no - 1):
            raise ValueError(f"vocab line {line_no}: expected 'piece<TAB>{line_no - 1}'")
        if parts[0] in vocab:
            raise ValueError(f"vocab line {line_no}: duplicate piece {parts[0]!r}")
        vocab[parts[0]] = line_no - 1
    for sp in SPECIALS:
        if sp not in vocab:
            raise ValueError(f"vocab is missing special token {sp}")
    merges = []
    for line_no, line in enumerate(read_lines(merges_text), 1):
        parts = line.split(" ")
        if len(parts) != 2:
            raise ValueError(f"merges line {line_no}: expected 'left right'")
        for piece in (parts[0], parts[1], parts[0] + parts[1]):
            if piece not in vocab:
                raise ValueError(f"merges line {line_no}: {piece!r} is not a vocab piece")
        merges.append((parts[0], parts[1]))
    return MergeTable(
        merges=tuple(merges), pieces=tuple(vocab), vocab=vocab, lowercase=lowercase
    )


def save_table(table: MergeTable, directory: str | Path) -> None:
    """Write a tokenizer directory: merges.txt and vocab.txt."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    (d / "merges.txt").write_text(dump_merges(table), encoding="utf-8")
    (d / "vocab.txt").write_text(dump_vocab(table), encoding="utf-8")


def read_table(directory: str | Path, lowercase: bool) -> MergeTable:
    """Read a tokenizer directory written by save_table."""
    d = Path(directory)
    return load_table((d / "merges.txt").read_text(encoding="utf-8"),
                      (d / "vocab.txt").read_text(encoding="utf-8"), lowercase=lowercase)


def word_frequencies(word_lists: Iterable[Sequence[str]]) -> dict[str, int]:
    """Each word's count as written; train_bpe does any lowercasing."""
    counts: Counter = Counter()
    for words in word_lists:
        counts.update(words)
    return dict(counts)
