"""Byte-pair-encoding subword tokenizer with word/subtoken label alignment.

Training repeatedly merges the corpus-wide most frequent adjacent symbol
pair (weighted by word frequency, ties broken lexicographically), so the
merge list is a deterministic function of the corpus. Each merge finds its
work through an index, not a scan: a map from each pair to the words that
hold it, so only those words are re-counted, and a max-heap of
(-count, pair) whose least entry is the highest count and, among equal
counts, the lexicographically least pair; an entry whose count has moved
on is dropped when it reaches the top. Segmentation applies the merges in
list order, and from rank r jumps straight to the least rank >= r whose
pair the word holds, so a word pays for the merges it takes, not for the
whole list. Merge rules operate on bare symbol strings; the derived
vocabulary stores every symbol twice, as a word-initial piece and as a
``##``-prefixed continuation piece, which keeps decoding and word
alignment unambiguous. Encoding builds a note's flat piece arrays in one
pass and cuts each window as a slice of them; a note longer than the
encoder window gets overlapping windows whose edges snap back to a word
start by lookup, so no word is cut unless it overflows a window by itself.
"""
from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

from .corpus import WORD_BREAKS, read_lines, read_text

PAD, UNK, CLS, SEP = "[PAD]", "[UNK]", "[CLS]", "[SEP]"
SPECIALS = (PAD, UNK, CLS, SEP)
CONTINUATION = "##"
IGNORE_INDEX = -100


class AlignmentError(ValueError):
    """Labels do not line up word-for-word with the words they label."""


@dataclass(frozen=True, slots=True)
class MergeTable:
    """Ordered merge rules plus the subword vocabulary.

    Three fields are derived, private to each table and left out of
    comparison (init=False, so dataclasses.replace rebuilds them):
    ``vocab`` maps each piece to its token id, its position in ``pieces``;
    ``ranks`` maps each merge pair to its ascending list positions (a table
    load_table accepts may list one pair twice), which lets segment_word
    jump from rank r straight to the next rank whose pair a word holds;
    ``segmentations`` memoizes segment_word per word for encode. It is
    unbounded and grows with the distinct words the table encodes.
    """

    merges: tuple[tuple[str, str], ...]
    pieces: tuple[str, ...]          # piece string per token id
    lowercase: bool = False
    vocab: dict[str, int] = field(init=False, compare=False, repr=False)
    ranks: dict[tuple[str, str], list[int]] = field(init=False, compare=False, repr=False)
    segmentations: dict[str, tuple[str, ...]] = field(
        default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "vocab", {p: i for i, p in enumerate(self.pieces)})
        ranks: dict[tuple[str, str], list[int]] = {}
        for r, pair in enumerate(self.merges):
            ranks.setdefault(pair, []).append(r)
        object.__setattr__(self, "ranks", ranks)

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


def train_bpe(
    word_frequency: Mapping[str, int],
    num_merges: int,
    lowercase: bool = False,
) -> MergeTable:
    """Learn min(num_merges, available) merges from a word-frequency map.

    Pair statistics are updated incrementally: after each merge only the
    words holding the merged pair (its ``holders`` entry) are recounted, and
    the next pair comes off a max-heap of (-count, pair) entries, each
    dropped when popped if the pair's count has moved on since.
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
    seqs = list(words)
    freqs = list(words.values())
    counts: Counter = Counter()
    holders: dict[tuple[str, str], set[int]] = {}
    for w, seq in enumerate(seqs):
        for pair in zip(seq, seq[1:]):
            counts[pair] += freqs[w]
            holders.setdefault(pair, set()).add(w)
    heap = [(-count, pair) for pair, count in counts.items()]
    heapq.heapify(heap)
    merges: list[tuple[str, str]] = []
    while len(merges) < num_merges:
        # an entry is live while its count is still the pair's count
        while heap and counts.get(heap[0][1]) != -heap[0][0]:
            heapq.heappop(heap)
        if not heap:
            break
        pair = heapq.heappop(heap)[1]
        merges.append(pair)
        delta: Counter = Counter()
        for w in holders.pop(pair):
            seq, freq = seqs[w], freqs[w]
            new_seq = seqs[w] = _merge_seq(seq, pair)
            for p in zip(seq, seq[1:]):
                delta[p] -= freq
                if p != pair:
                    holders[p].discard(w)
            for p in zip(new_seq, new_seq[1:]):
                delta[p] += freq
                holders.setdefault(p, set()).add(w)
        for p, d in delta.items():
            if d:
                counts[p] += d
                if counts[p]:
                    heapq.heappush(heap, (-counts[p], p))
                else:
                    del counts[p]

    pieces = list(SPECIALS)
    for sym in chars + [a + b for a, b in merges]:
        pieces += (sym, CONTINUATION + sym)
    # each piece once, at its first appearance
    return MergeTable(merges=tuple(merges), pieces=tuple(dict.fromkeys(pieces)),
                      lowercase=lowercase)


def segment_word(word: str, table: MergeTable) -> list[str]:
    """Split one word into piece surfaces (continuation pieces ##-prefixed).

    Applies the merges in list order, each wherever its pair is adjacent;
    from rank r it jumps to the least rank >= r whose pair the word holds.
    """
    if table.lowercase:
        word = word.lower()
    seq: tuple[str, ...] = tuple(word)
    ranks = table.ranks
    r = 0
    while len(seq) > 1:
        best = None
        for pair in zip(seq, seq[1:]):
            pair_ranks = ranks.get(pair)
            if pair_ranks is not None:
                i = bisect_left(pair_ranks, r)
                if i < len(pair_ranks) and (best is None or pair_ranks[i] < best):
                    best = pair_ranks[i]
        if best is None:
            break
        seq = _merge_seq(seq, table.merges[best])
        r = best + 1
    return [sym if j == 0 else CONTINUATION + sym for j, sym in enumerate(seq)]


def _plan_windows(word_of_piece: list[int], first_piece: list[int],
                  capacity: int) -> list[tuple[int, int]]:
    """Overlapping [start, end) windows of at most capacity pieces. Both
    edges snap back to a word start, first_piece[word_of_piece[i]], unless
    that stops the windows advancing; a word that fills a window is cut."""
    n = len(word_of_piece)
    overlap = capacity // 4
    windows: list[tuple[int, int]] = []
    start = 0
    while True:
        end = min(start + capacity, n)
        if end < n and (snapped := first_piece[word_of_piece[end]]) > start:
            end = snapped
        windows.append((start, end))
        if end == n:
            return windows
        nxt = first_piece[word_of_piece[max(end - overlap, 0)]]
        start = end if nxt <= start or min(nxt + capacity, n) <= end else nxt


def encode(words: Sequence[str], table: MergeTable, max_len: int) -> list[TokenizedSequence]:
    """Tokenize a word sequence into one or more [CLS] ... [SEP] windows,
    each a slice of the flat piece arrays one pass over the words builds."""
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
    first_flat.append(len(surfaces))   # word w holds pieces first_flat[w] to first_flat[w + 1]
    get, unk = table.vocab.get, table.unk_id
    ids = [get(piece, unk) for piece in surfaces]
    out: list[TokenizedSequence] = []
    for s, e in _plan_windows(word_of_piece, first_flat, max_len - 2):
        # word_of_piece never decreases, so the window's end pieces bound its words
        lo, hi = (word_of_piece[s], word_of_piece[e - 1] + 1) if e > s else (0, 0)
        out.append(TokenizedSequence(
            token_ids=(table.cls_id, *ids[s:e], table.sep_id),
            pieces=(CLS, *surfaces[s:e], SEP),
            word_index_of=(None, *word_of_piece[s:e], None),
            first_subtoken_of={w: 1 + first_flat[w] - s for w in range(lo, hi)
                               if s <= first_flat[w] < first_flat[w + 1]},
            word_span=(lo, hi), piece_span=(s, e)))
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
    return MergeTable(merges=tuple(merges), pieces=tuple(vocab), lowercase=lowercase)


def save_table(table: MergeTable, directory: str | Path) -> None:
    """Write a tokenizer directory: merges.txt and vocab.txt."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    (d / "merges.txt").write_text(dump_merges(table), encoding="utf-8")
    (d / "vocab.txt").write_text(dump_vocab(table), encoding="utf-8")


def read_table(directory: str | Path, lowercase: bool) -> MergeTable:
    """Read a tokenizer directory written by save_table."""
    d = Path(directory)
    return load_table(read_text(d / "merges.txt"), read_text(d / "vocab.txt"), lowercase)


def word_frequencies(word_lists: Iterable[Sequence[str]]) -> dict[str, int]:
    """Each word's count as written; train_bpe does any lowercasing."""
    counts: Counter = Counter()
    for words in word_lists:
        counts.update(words)
    return dict(counts)
