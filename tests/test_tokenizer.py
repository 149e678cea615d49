import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from handover_ie.corpus import Record, RecordSet
from handover_ie.pipeline import fit_tokenizer
from handover_ie import tokenizer
from handover_ie.tokenizer import (
    CLS,
    CONTINUATION,
    IGNORE_INDEX,
    MergeTable,
    SEP,
    SPECIALS,
    align_labels,
    dump_merges,
    dump_vocab,
    encode,
    load_table,
    read_table,
    save_table,
    segment_word,
    train_bpe,
    word_frequencies,
)

from helpers import (
    WORD_LISTS,
    as_saved,
    corruptions,
    decode,
    draw_offset,
    reference_encode_words,
    reference_plan_windows,
    reference_segment_word,
    reference_train_bpe,
)

SENNRICH_CORPUS = {"low": 5, "lower": 2, "newest": 6, "widest": 3}


def brute_force_merges(word_frequency, num_merges, lowercase=False):
    """Independent oracle: rescan every pair of every word each iteration."""
    words = {}
    for word, count in word_frequency.items():
        key = tuple(word.lower() if lowercase else word)
        words[key] = words.get(key, 0) + count
    merges = []
    for _ in range(num_merges):
        counts = Counter()
        for seq, freq in words.items():
            for pair in zip(seq, seq[1:]):
                counts[pair] += freq
        if not counts:
            break
        top = max(counts.values())
        pair = min(p for p, c in counts.items() if c == top)
        merges.append(pair)
        new_words = {}
        for seq, freq in words.items():
            out = []
            i = 0
            while i < len(seq):
                if i + 1 < len(seq) and (seq[i], seq[i + 1]) == pair:
                    out.append(seq[i] + seq[i + 1])
                    i += 2
                else:
                    out.append(seq[i])
                    i += 1
            key = tuple(out)
            new_words[key] = new_words.get(key, 0) + freq
        words = new_words
    return merges


def corpus_token_count(word_frequency, merges):
    words = {tuple(w): c for w, c in word_frequency.items()}
    totals = [sum(len(seq) * c for seq, c in words.items())]
    for pair in merges:
        new_words = {}
        for seq, freq in words.items():
            out = []
            i = 0
            while i < len(seq):
                if i + 1 < len(seq) and (seq[i], seq[i + 1]) == pair:
                    out.append(seq[i] + seq[i + 1])
                    i += 2
                else:
                    out.append(seq[i])
                    i += 1
            new_words[tuple(out)] = new_words.get(tuple(out), 0) + freq
        words = new_words
        totals.append(sum(len(seq) * c for seq, c in words.items()))
    return totals


def random_corpus(rng):
    n = int(rng.integers(2, 9))
    corpus = {}
    for _ in range(n):
        length = int(rng.integers(1, 8))
        word = "".join(rng.choice(list("abcdef")) for _ in range(length))
        corpus[word] = corpus.get(word, 0) + int(rng.integers(1, 9))
    return corpus


def test_zero_merges_vocab_is_exactly_characters_plus_specials():
    table = train_bpe(SENNRICH_CORPUS, 0)
    assert table.merges == ()
    chars = set("lowernwst" "ide")
    expected = set(SPECIALS) | chars | {CONTINUATION + c for c in chars}
    assert set(table.vocab) == expected
    assert {p.removeprefix(CONTINUATION) for p in table.pieces if p not in SPECIALS} == chars


def test_table_derives_its_vocab_from_its_pieces():
    pieces = SPECIALS + ("a", "##a", "b", "##b", "ab", "##ab")
    table = MergeTable(merges=(("a", "b"),), pieces=pieces)
    assert table.vocab == {p: i for i, p in enumerate(pieces)}
    assert replace(table, pieces=pieces[::-1]).vocab["##ab"] == 0


def test_first_merge_is_e_s_with_count_nine():
    table = train_bpe(SENNRICH_CORPUS, 1)
    assert table.merges == (("e", "s"),)
    pairs = Counter()
    for word, freq in SENNRICH_CORPUS.items():
        for pair in zip(word, word[1:]):
            pairs[pair] += freq
    assert pairs[("e", "s")] == 9
    assert max(pairs.values()) == 9


def test_merge_list_matches_bruteforce_oracle_on_sennrich_corpus():
    table = train_bpe(SENNRICH_CORPUS, 10)
    assert list(table.merges) == brute_force_merges(SENNRICH_CORPUS, 10)


def test_merge_list_matches_bruteforce_oracle_on_random_corpora():
    import numpy as np

    for trial in range(25):
        rng = np.random.default_rng(trial)
        corpus = random_corpus(rng)
        n = int(rng.integers(0, 15))
        table = train_bpe(corpus, n)
        assert list(table.merges) == brute_force_merges(corpus, n), (trial, corpus, n)


def test_training_is_deterministic():
    a = train_bpe(SENNRICH_CORPUS, 10)
    b = train_bpe(SENNRICH_CORPUS, 10)
    assert a.merges == b.merges and a.vocab == b.vocab


def test_each_merge_strictly_reduces_corpus_token_count():
    import numpy as np

    for trial in range(10):
        corpus = random_corpus(np.random.default_rng(100 + trial))
        table = train_bpe(corpus, 20)
        totals = corpus_token_count(corpus, table.merges)
        assert all(b < a for a, b in zip(totals, totals[1:])), (corpus, totals)


def test_exhausted_corpus_stops_merging():
    table = train_bpe({"ab": 3}, 10)
    assert table.merges == (("a", "b"),)


def test_train_rejects_bad_input():
    with pytest.raises(ValueError):
        train_bpe({}, 5)
    with pytest.raises(ValueError):
        train_bpe({"ok": 0}, 5)
    with pytest.raises(ValueError):
        train_bpe({"two words": 1}, 5)
    with pytest.raises(ValueError):
        train_bpe({"x": 1}, -1)


# few letters, so pairs repeat across words and counts tie often; upper case
# letters make lowercasing merge words
SMALL_CORPORA = st.dictionaries(st.text("abcAB", min_size=1, max_size=10),
                                st.integers(1, 9), min_size=1, max_size=20)


@given(SMALL_CORPORA, st.integers(0, 40), st.booleans())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_indexed_fit_matches_scan_oracle(corpus, num_merges, lowercase):
    table = train_bpe(corpus, num_merges, lowercase=lowercase)
    oracle = reference_train_bpe(corpus, num_merges, lowercase=lowercase)
    assert (table.merges, table.vocab, table.pieces) == (oracle.merges, oracle.vocab,
                                                          oracle.pieces)


def test_fit_merges_only_the_words_that_hold_each_pair(monkeypatch):
    import numpy as np

    corpus = {}
    for trial in range(20):
        for word, count in random_corpus(np.random.default_rng(trial)).items():
            corpus[word] = corpus.get(word, 0) + count
    table = train_bpe(corpus, 40)
    # replay the merges: each touches the distinct words that hold its pair
    words = {tuple(w) for w in corpus}
    touched = 0
    for pair in table.merges:
        holding = {seq for seq in words if pair in zip(seq, seq[1:])}
        touched += len(holding)
        words = (words - holding) | {tokenizer._merge_seq(seq, pair) for seq in holding}
    assert touched < len(table.merges) * len(corpus) // 4   # a scan would merge every word
    calls = []
    merge_seq = tokenizer._merge_seq

    def counted(seq, pair):
        calls.append(pair)
        return merge_seq(seq, pair)

    monkeypatch.setattr(tokenizer, "_merge_seq", counted)
    assert train_bpe(corpus, 40) == table
    assert len(calls) == touched


def test_encode_single_known_word():
    table = train_bpe(SENNRICH_CORPUS, 10)
    (seq,) = encode(["low"], table, max_len=8)
    assert seq.pieces == (CLS, "low", SEP)
    assert seq.word_index_of == (None, 0, None)
    assert seq.first_subtoken_of == {0: 1}
    assert seq.token_ids[0] == table.cls_id and seq.token_ids[-1] == table.sep_id


def test_encode_unknown_word_with_known_characters_falls_to_pieces():
    table = train_bpe({"ab": 2, "cd": 2}, 0)
    (seq,) = encode(["adcb"], table, max_len=16)
    assert seq.pieces == (CLS, "a", "##d", "##c", "##b", SEP)
    assert all(w == 0 for w in seq.word_index_of[1:-1])
    assert table.unk_id not in seq.token_ids


def test_encode_unseen_character_maps_to_unk():
    table = train_bpe({"ab": 2}, 0)
    (seq,) = encode(["aZb"], table, max_len=16)
    assert seq.token_ids.count(table.unk_id) == 1
    assert seq.pieces[2] == "##Z"


def test_encode_ids_stay_inside_vocab():
    table = train_bpe(SENNRICH_CORPUS, 6)
    for seq in encode(["lowest", "wider", "xyz"], table, max_len=6):
        assert all(0 <= i < len(table.pieces) for i in seq.token_ids)


def test_encode_segments_each_distinct_word_once(monkeypatch):
    table = train_bpe(SENNRICH_CORPUS, 10)
    notes = [["lower", "newest", "low", "lower"], ["widest", "low", "lowest", "low"]]
    calls = Counter()

    def counted(word, t):
        calls[word] += 1
        return segment_word(word, t)

    monkeypatch.setattr(tokenizer, "segment_word", counted)
    first = [encode(words, table, 6) for words in notes]
    again = [encode(words, table, 6) for words in notes]
    assert calls == Counter({word for words in notes for word in words})
    assert sum(len(seqs) for seqs in first) > len(notes)   # several windows per note
    fresh = replace(table)
    assert fresh.segmentations == {} and len(table.segmentations) == len(calls)
    assert first == again == [encode(words, fresh, 6) for words in notes]
    assert fresh == table


def rank_order_segment(word, table):
    """Lowest-rank-first BPE: merge the leftmost adjacent pair whose merge
    rule comes first in the table, until no pair has a rule."""
    rank = {pair: r for r, pair in enumerate(table.merges)}
    seq = list(word)
    while True:
        ranked = [(rank[pair], i) for i, pair in enumerate(zip(seq, seq[1:])) if pair in rank]
        if not ranked:
            break
        _, i = min(ranked)
        seq[i:i + 2] = [seq[i] + seq[i + 1]]
    return [sym if j == 0 else CONTINUATION + sym for j, sym in enumerate(seq)]


def test_rank_order_segmentation_can_differ_from_merge_list_order():
    # a table load_table accepts whose merge (x, abcd) ranks before the merge
    # (abc, d) that forms abcd on the way segment_word walks the list
    merges = [("a", "b"), ("ab", "c"), ("c", "d"), ("ab", "cd"), ("x", "abcd"), ("abc", "d")]
    pieces = [*SPECIALS, *sorted({p for a, b in merges for p in (a, b, a + b)})]
    table = load_table("".join(f"{a} {b}\n" for a, b in merges),
                       "".join(f"{p}\t{i}\n" for i, p in enumerate(pieces)))
    assert segment_word("xabcd", table) == ["x", "##abcd"]
    assert rank_order_segment("xabcd", table) == ["xabcd"]


def table_of(merges, chars=""):
    """A table load_table accepts: the merges as listed, and as pieces the
    specials, chars, and each merge's two sides and join."""
    pieces = [*SPECIALS, *sorted({*chars, *(p for a, b in merges for p in (a, b, a + b))})]
    return load_table("".join(f"{a} {b}\n" for a, b in merges),
                      "".join(f"{p}\t{i}\n" for i, p in enumerate(pieces)))


def test_a_repeated_merge_pair_applies_again_at_its_later_rank():
    # (ab, c) is absent at rank 0 and present at rank 2, once (a, b) made ab
    table = table_of([("ab", "c"), ("a", "b"), ("ab", "c")])
    assert table.ranks[("ab", "c")] == [0, 2]
    assert segment_word("abc", table) == reference_segment_word("abc", table) == ["abc"]


@st.composite
def loaded_tables(draw):
    """Random merge lists over three letters, a pair sometimes repeated.

    A side is a symbol an earlier merge made, or any short string, so a
    pair may come before the merge that makes one of its sides.
    """
    symbols = list("abc")
    merges = []
    for _ in range(draw(st.integers(0, 12))):
        if merges and draw(st.integers(0, 3)) == 0:
            merges.append(draw(st.sampled_from(merges)))
        else:
            side = st.one_of(st.sampled_from(symbols), st.text("abc", min_size=1, max_size=2))
            pair = (draw(side), draw(side))
            merges.append(pair)
            symbols.append(pair[0] + pair[1])
    return table_of(merges, "abc")


@given(loaded_tables(), st.lists(st.text("abc", min_size=1, max_size=14), max_size=10))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_rank_jump_segmentation_matches_merge_list_walk(table, words):
    for word in words:
        assert segment_word(word, table) == reference_segment_word(word, table)


def test_encode_requires_room_for_specials():
    table = train_bpe({"a": 1}, 0)
    with pytest.raises(ValueError):
        encode(["a"], table, max_len=2)


@given(st.lists(st.integers(0, 40), max_size=30), st.integers(1, 40))
@settings(max_examples=1000, deadline=None, derandomize=True)
def test_window_plan_by_lookup_matches_backward_walk(word_lengths, capacity):
    word_of_piece, first_piece = [], []
    for w, length in enumerate(word_lengths):
        first_piece.append(len(word_of_piece))
        word_of_piece.extend([w] * length)
    assert (tokenizer._plan_windows(word_of_piece, first_piece, capacity)
            == reference_plan_windows(word_of_piece, capacity))


@given(st.dictionaries(st.text("abcd", min_size=1, max_size=8), st.integers(1, 5),
                       min_size=1, max_size=8),
       st.integers(0, 12),
       st.lists(st.text("abcdZ", max_size=30), max_size=12),
       st.integers(3, 14))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_sliced_windows_match_per_piece_oracle(counts, n_merges, words, max_len):
    # words of up to 30 pieces overflow every window; "" and [] are drawn too
    table = train_bpe(counts, n_merges)
    # dataclass equality compares all six fields of every window
    assert encode(words, table, max_len) == reference_encode_words(words, table, max_len)


def test_lowercase_table():
    table = train_bpe({"Low": 1, "low": 2}, 2, lowercase=True)
    assert segment_word("LOW", table) == segment_word("low", table)


@st.composite
def trained_corpus_and_sentence(draw):
    words = draw(st.lists(st.text("abcd", min_size=1, max_size=6), min_size=1, max_size=8,
                          unique=True))
    counts = {w: draw(st.integers(1, 5)) for w in words}
    sentence = draw(st.lists(st.sampled_from(words), min_size=1, max_size=12))
    n_merges = draw(st.integers(0, 12))
    max_len = draw(st.integers(4, 24))
    return counts, sentence, n_merges, max_len


@given(trained_corpus_and_sentence())
@settings(max_examples=60, deadline=None)
def test_decode_encode_round_trip_at_word_level(case):
    counts, sentence, n_merges, max_len = case
    table = train_bpe(counts, n_merges)
    seqs = encode(sentence, table, max_len=max_len)
    assert decode(seqs) == sentence


@given(trained_corpus_and_sentence())
@settings(max_examples=60, deadline=None)
def test_windows_reconstruct_full_subtoken_stream(case):
    counts, sentence, n_merges, max_len = case
    table = train_bpe(counts, n_merges)
    full = []
    for w in sentence:
        full.extend(segment_word(w, table))
    seqs = encode(sentence, table, max_len=max_len)
    seen = {}
    for seq in seqs:
        assert len(seq.token_ids) <= max_len
        assert seq.pieces[0] == CLS and seq.pieces[-1] == SEP
        flat = seq.piece_span[0]
        for piece, w in zip(seq.pieces[1:-1], seq.word_index_of[1:-1]):
            seen.setdefault(flat, piece)
            flat += 1
    assert [seen[k] for k in sorted(seen)] == full


@given(trained_corpus_and_sentence())
@settings(max_examples=60, deadline=None)
def test_word_index_nondecreasing_and_every_word_covered(case):
    counts, sentence, n_merges, max_len = case
    table = train_bpe(counts, n_merges)
    seqs = encode(sentence, table, max_len=max_len)
    covered = set()
    firsts = set()
    for seq in seqs:
        interior = [w for w in seq.word_index_of if w is not None]
        assert interior == sorted(interior)
        covered.update(interior)
        firsts.update(seq.first_subtoken_of)
    assert covered == set(range(len(sentence)))
    assert firsts == set(range(len(sentence)))


def test_align_one_subtoken_per_word_masks_every_interior_position():
    table = train_bpe(SENNRICH_CORPUS, 10)
    (seq,) = encode(["low", "newest"], table, max_len=8)
    labels = align_labels(seq, [4, 2])
    assert labels == [IGNORE_INDEX, 4, 2, IGNORE_INDEX]
    assert seq.first_subtoken_of == {0: 1, 1: 2}


def test_align_multi_subtoken_word_repeats_label_and_masks_tail():
    table = train_bpe({"ab": 2}, 0)
    (seq,) = encode(["abc"], table, max_len=8)
    assert len(seq.token_ids) == 5
    labels = align_labels(seq, [7])
    assert labels == [IGNORE_INDEX, 7, 7, 7, IGNORE_INDEX]
    assert seq.first_subtoken_of == {0: 1}


@given(trained_corpus_and_sentence())
@settings(max_examples=60, deadline=None)
def test_masked_readback_has_word_length(case):
    counts, sentence, n_merges, max_len = case
    table = train_bpe(counts, n_merges)
    word_labels = [i % 3 for i in range(len(sentence))]
    picked = {}
    for seq in encode(sentence, table, max_len=max_len):
        lo, hi = seq.word_span
        labels = align_labels(seq, word_labels)
        assert {w for w in seq.word_index_of if w is not None} == set(range(lo, hi))
        for w, pos in seq.first_subtoken_of.items():
            assert seq.word_index_of[pos] == w
            picked[w] = labels[pos]
    assert len(picked) == len(sentence)
    assert [picked[i] for i in range(len(sentence))] == word_labels


@given(st.lists(st.text("lowernwst" "ide", min_size=1, max_size=10), min_size=1,
                max_size=8))
@settings(max_examples=60, deadline=None)
def test_no_unk_for_novel_words_over_training_characters(sentence):
    # every training character gets both a word-initial and a continuation
    # piece, so any word over that alphabet encodes without [UNK]
    table = train_bpe(SENNRICH_CORPUS, 10)
    for seq in encode(sentence, table, max_len=32):
        assert table.unk_id not in seq.token_ids


def test_merge_and_vocab_files_round_trip():
    table = train_bpe(SENNRICH_CORPUS, 7)
    back = load_table(dump_merges(table), dump_vocab(table))
    assert back.merges == table.merges
    assert back.vocab == table.vocab
    assert back.pieces == table.pieces


def test_load_table_validates():
    table = train_bpe({"ab": 1}, 1)
    with pytest.raises(ValueError):
        load_table("a b c\n", dump_vocab(table))
    with pytest.raises(ValueError):
        load_table(dump_merges(table), "x\t0\n")


def vocab_lines(table):
    return dump_vocab(table).splitlines(keepends=True)


# 14 pieces: the specials, a b c and the merges ab, abc, each bare and ##-prefixed
ABC = train_bpe({"abc": 1}, 2)


@pytest.mark.parametrize("line_no, spelling", [
    (5, "4 "), (5, "4\x85"), (5, "+4"), (5, "\u0664"), (11, "1_0"),
])
def test_load_table_rejects_vocab_id_not_written_as_line_number(line_no, spelling):
    lines = vocab_lines(ABC)
    piece = ABC.pieces[line_no - 1]
    lines[line_no - 1] = f"{piece}\t{spelling}\n"
    with pytest.raises(ValueError, match=f"vocab line {line_no}:"):
        load_table(dump_merges(ABC), "".join(lines))


def test_load_table_rejects_out_of_order_ids():
    lines = vocab_lines(ABC)
    lines[4], lines[5] = lines[5], lines[4]
    with pytest.raises(ValueError, match="vocab line 5:"):
        load_table(dump_merges(ABC), "".join(lines))


def test_load_table_rejects_duplicate_piece():
    lines = vocab_lines(ABC)
    assert lines[4:6] == ["a\t4\n", "##a\t5\n"]
    lines[5] = "a\t5\n"
    with pytest.raises(ValueError, match="vocab line 6: duplicate piece 'a'"):
        load_table(dump_merges(ABC), "".join(lines))


@pytest.mark.parametrize("merge, missing", [("x b", "x"), ("a y", "y"), ("b c", "bc")])
def test_load_table_rejects_merge_outside_vocab(merge, missing):
    merges = dump_merges(ABC) + merge + "\n"
    with pytest.raises(ValueError, match=f"merges line 3: {missing!r} is not a vocab piece"):
        load_table(merges, dump_vocab(ABC))


@given(WORD_LISTS, st.integers(0, 30), st.booleans())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_table_files_round_trip_byte_exactly(words, num_merges, lowercase):
    table = train_bpe(word_frequencies([words]), num_merges, lowercase=lowercase)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first"), Path(tmp, "second")
        save_table(table, first)
        back = read_table(first, lowercase)
        save_table(back, second)
        for name in ("merges.txt", "vocab.txt"):
            assert (second / name).read_bytes() == (first / name).read_bytes()
    assert (back.merges, back.pieces, back.vocab, back.lowercase) == (
        table.merges, table.pieces, table.vocab, table.lowercase)
    assert table.vocab == {p: i for i, p in enumerate(table.pieces)}


@given(WORD_LISTS, st.integers(0, 30), st.sampled_from(("merges.txt", "vocab.txt")), st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_corrupted_table_files_are_rejected_or_round_trip(words, num_merges, name, data):
    table = train_bpe(word_frequencies([words]), num_merges)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first"), Path(tmp, "second")
        save_table(table, first)
        raw = (first / name).read_bytes()
        for corrupted in corruptions(raw, draw_offset(data, raw)):
            (first / name).write_bytes(corrupted)
            try:
                back = read_table(first, False)
            except ValueError:
                continue
            save_table(back, second)
            for file in ("merges.txt", "vocab.txt"):
                assert (second / file).read_bytes() == as_saved((first / file).read_bytes())


def test_records_and_tokenizer_share_one_word_rule():
    # Unicode whitespace other than the space is text to both
    words = ("a\x85b", "c\u2028d", "e\vf", "g\x1ch", "a\x85b")
    rs = RecordSet(split="train",
                   records=(Record(id="r", words=words, labels=(0,) * len(words)),))
    table = fit_tokenizer(rs, 5, False)
    assert ("a", "\x85") in table.merges
    assert decode(encode(words, table, max_len=128)) == list(words)
    back = load_table(dump_merges(table), dump_vocab(table))
    assert (back.merges, back.pieces) == (table.merges, table.pieces)
    # a space, tab or line break is refused by both
    for word in ("a b", "a\tb", "a\nb", "a\rb", ""):
        with pytest.raises(ValueError):
            Record(id="r", words=(word,), labels=(0,))
        with pytest.raises(ValueError):
            train_bpe({word: 1}, 5)


def test_word_frequencies_counts_and_lowercases():
    assert word_frequencies([("A", "b"), ("a", "b")]) == {"A": 1, "b": 2, "a": 1}
    # lowercasing is train_bpe's: case variants pool their counts there
    for mixed, pooled in (({"A": 1, "a": 1}, {"a": 2}),
                          ({"Ab": 1, "aB": 2, "ab": 1, "c": 1}, {"ab": 4, "c": 1})):
        got = train_bpe(mixed, 3, lowercase=True)
        want = train_bpe(pooled, 3, lowercase=True)
        assert (got.merges, got.pieces) == (want.merges, want.pieces)
        assert (dump_merges(got), dump_vocab(got)) == (dump_merges(want), dump_vocab(want))


def test_oversized_single_word_is_hard_split():
    table = train_bpe({"abcdefgh": 1}, 0)
    seqs = encode(["abcdefgh"], table, max_len=5)
    assert len(seqs) > 1
    assert decode(seqs) == ["abcdefgh"]
    firsts = [seq.first_subtoken_of for seq in seqs]
    assert firsts[0] == {0: 1}
    assert all(f == {} for f in firsts[1:])
