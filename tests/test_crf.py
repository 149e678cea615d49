import itertools
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from handover_ie.corpus import (
    LabelScheme,
    Record,
    RecordSet,
    default_synthetic_scheme,
    generate_synthetic,
)
from handover_ie import crf
from handover_ie.crf import (
    BOS,
    EOS,
    UNIGRAM_TEMPLATES,
    CrfModel,
    FeatureIndex,
    minimize_lbfgs,
    nll_and_grad,
    pack,
    plan_fit,
    predict_labels,
    save_crf,
    load_crf,
    train,
    viterbi,
    weight_count,
    _wolfe_line_search,
)
from handover_ie.pipeline import TrainConfig
from handover_ie.tensor import TrainingDivergence

from helpers import (
    WORD_LISTS,
    as_saved,
    corruptions,
    draw_offset,
    extract_features,
    id_of,
    loop_nll_and_grad,
    loop_viterbi,
    path_score,
    posteriors,
    reference_minimize_lbfgs,
    reference_nll_and_grad,
    reference_fit_order,
    reference_transform,
)

# the L-BFGS budget and tolerance train_crf uses by default
MAX_ITERS, GRAD_TOL = TrainConfig().max_iters, TrainConfig().grad_tol

# how far a result of the scaled recursion may stray from the log-space
# recursion or from brute force: this share of the reference's largest
# magnitude, or of 1 if that is smaller
RTOL = 1e-9


def assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.isfinite(got).all()
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    assert float(np.abs(got - want).max(initial=0.0)) <= RTOL * scale


def brute_force(unary, trans):
    t_len, y = unary.shape
    paths = list(itertools.product(range(y), repeat=t_len))
    scores = np.array([path_score(unary, trans, p) for p in paths])
    log_z = float(np.log(np.exp(scores - scores.max()).sum()) + scores.max())
    probs = np.exp(scores - log_z)
    node = np.zeros((t_len, y))
    pair = np.zeros((max(t_len - 1, 0), y, y))
    for p, pr in zip(paths, probs):
        for t, lab in enumerate(p):
            node[t, lab] += pr
        for t in range(t_len - 1):
            pair[t, p[t], p[t + 1]] += pr
    best = scores.max()
    optimal = [p for p, s in zip(paths, scores) if s >= best - 1e-11]
    # the dynamic program breaks ties toward the lower label id while
    # backtracking, i.e. it minimizes the reversed label tuple
    tie_path = min(optimal, key=lambda p: tuple(reversed(p)))
    return log_z, node, pair, best, tie_path


def random_instance(rng):
    """Brute-forceable notes of 1-5 steps sharing one transition matrix,
    one of them a single step, as (unary rows, note starts, transition)."""
    y = int(rng.integers(2, 5))
    lengths = [1, *(int(t) for t in rng.integers(1, 6, int(rng.integers(1, 4))))]
    rng.shuffle(lengths)
    starts = np.concatenate(([0], np.cumsum(lengths)))
    return rng.normal(0, 2, (starts[-1], y)), starts, rng.normal(0, 2, (y, y))


def notes_of(unary, starts):
    return [unary[a:b] for a, b in zip(starts[:-1], starts[1:])]


def test_extract_features_boundary_sentinels():
    feats = extract_features(["only"])
    (pos0,) = feats
    surfaces = dict(pos0)
    assert surfaces[0] == (BOS,)         # w[-1]
    assert surfaces[1] == ("only",)      # w[0]
    assert surfaces[2] == (EOS,)         # w[+1]
    assert surfaces[3] == (BOS, "only")
    assert surfaces[4] == ("only", EOS)
    assert surfaces[5] == (BOS, "only", EOS)


def test_extract_features_middle_position_conjunctions():
    feats = extract_features(["a", "b", "c"])
    surfaces = [s for _, s in feats[1]]
    assert surfaces == [("a",), ("b",), ("c",), ("a", "b"), ("b", "c"), ("a", "b", "c")]
    assert len(feats[1]) == 6
    # words containing "|" must not merge into another window's conjunction
    trigrams = [{s for pos in extract_features(words) for ti, s in pos if ti == 5}
                for words in (["a|b", "c", "d"], ["a", "b|c", "d"])]
    assert trigrams[0].isdisjoint(trigrams[1])


def test_feature_ids_stable_across_rebuilds():
    words = [["a", "b"], ["b", "c", "a"]]
    one = FeatureIndex.fit(words, 1)
    two = FeatureIndex.fit(words, 1)
    assert one.obs == two.obs
    a, b = (index.transform([["a", "b"]]) for index in (one, two))
    assert np.array_equal(a.ids, b.ids)


def test_unseen_surfaces_are_dropped():
    index = FeatureIndex.fit([["a", "b"]], 1)
    feats = index.transform([["z", "q"]])
    firing_counts = (feats.ids != index.num_obs).sum(axis=1)
    assert firing_counts.tolist() == [1, 1]      # only w[-1] = BOS and w[+1] = EOS are indexed


def test_transform_flattens_notes_in_order():
    index = FeatureIndex.fit([["a", "b"], ["c"]], 1)
    feats = index.transform([["a", "b"], ["c"]])
    expected_ids = [[id_of(index).get(key, index.num_obs) for key in firings]
                    for words in (["a", "b"], ["c"]) for firings in extract_features(words)]
    assert feats.ids.tolist() == expected_ids
    assert feats.starts.tolist() == [0, 2, 3]


def test_an_index_is_built_from_distinct_observations():
    index = FeatureIndex([(1, ("a",)), (3, ("a", "b")), (1, ("b",))])
    assert index.obs == ((1, ("a",)), (3, ("a", "b")), (1, ("b",)))
    assert index.transform([["a", "b"]]).ids.tolist() == [[3, 0, 3, 3, 3, 3], [3, 2, 3, 1, 3, 3]]
    with pytest.raises(ValueError, match="duplicate observation"):
        FeatureIndex([(1, ("a",)), (1, ("a",))])


# words of the notes an index is fitted on: few, so that surfaces repeat and
# reach min_count 2, with a "|" and the padding sentinels as literal words;
# the notes it featurizes also hold words it never saw, and may be empty
FIT_WORDS = ("a", "b", "c", "a|b", BOS, EOS)
FIT_NOTES = st.lists(st.lists(st.sampled_from(FIT_WORDS), min_size=1, max_size=8),
                     min_size=1, max_size=6)
NEW_NOTES = st.lists(st.lists(st.sampled_from(FIT_WORDS + ("z", "q|z")), max_size=8),
                     min_size=1, max_size=6)


@given(FIT_NOTES, NEW_NOTES, st.integers(1, 2))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_transform_matches_the_per_position_lookup(fit_on, notes, min_count):
    index = FeatureIndex.fit(fit_on, min_count)
    want = reference_fit_order(fit_on, min_count)
    assert index.obs == want
    model = CrfModel(num_labels=2, index=index, weights=np.zeros(weight_count(index.num_obs, 2)))
    with tempfile.TemporaryDirectory() as tmp:
        features, weights = Path(tmp, "features.tsv"), Path(tmp, "weights.tarch")
        save_crf(model, str(features), str(weights))
        loaded = load_crf(str(features), str(weights), LabelScheme(labels=("N.A.", "a")))
    assert loaded.index.obs == want
    one_word_notes = [[word] for note in notes for word in note]
    for featurizer in (index, loaded.index):
        for batch in (notes, one_word_notes, fit_on):
            got = featurizer.transform(batch)
            want_ids, want_starts = reference_transform(featurizer, batch)
            assert got.ids.dtype == want_ids.dtype and np.array_equal(got.ids, want_ids)
            assert np.array_equal(got.starts, want_starts)


def test_plan_fit_gold_cells_hold_each_records_labels():
    # the shorter notes come first, so packing reorders the rows
    rs = make_set([[("a", 1), ("b", 0)], [("c", 2)], [("d", 0), ("e", 1), ("f", 2)]])
    model = CrfModel.build(rs, LabelScheme(labels=("N.A.", "a", "b")), 1)
    plan = plan_fit(model, rs)
    rows, labels = np.divmod(plan.gold_cells, model.num_labels)
    assert labels.tolist() == [label for r in rs.records for label in r.labels]
    assert plan.packed.perm[rows].tolist() == list(range(6))


def test_feature_cutoff_prunes_rare_observations():
    words = [["a", "b"], ["a", "b"], ["c"]]
    keep_all = FeatureIndex.fit(words, 1)
    pruned = FeatureIndex.fit(words, min_count=2)
    assert pruned.num_obs < keep_all.num_obs
    # the twice-seen unigram survives, the once-seen word does not
    assert (1, ("a",)) in pruned.obs
    assert (1, ("c",)) not in pruned.obs
    with pytest.raises(ValueError):
        FeatureIndex.fit(words, min_count=0)
    # fit slices the same firings as the reference extract_features, and
    # numbers observations in the order they reach min_count
    notes = [r.words for r in generate_synthetic(20, default_synthetic_scheme(), seed=29).records]
    for min_count in (1, 2):
        got = FeatureIndex.fit(notes + words, min_count).obs
        assert got == reference_fit_order(notes + words, min_count)


def test_zero_weights_log_partition_and_marginals():
    lengths = (1, 4, 6)
    starts = np.concatenate(([0], np.cumsum(lengths)))
    for y in (2, 3, 4):
        unary = np.zeros((starts[-1], y))
        trans = np.zeros((y, y))
        node, pair, log_z = posteriors(unary, starts, trans)
        assert np.abs(log_z - np.array(lengths) * math.log(y)).max() < 1e-12
        assert np.abs(node - 1.0 / y).max() < 1e-12
        assert np.abs(pair - sum(t - 1 for t in lengths) / y ** 2).max() < 1e-12


def test_inference_matches_bruteforce_enumeration():
    for trial in range(120):
        rng = np.random.default_rng(trial)
        unary, starts, trans = random_instance(rng)
        got_node, got_pair, got_log_z = posteriors(unary, starts, trans)
        got_paths = viterbi(unary, starts, trans)
        pair_sum = np.zeros_like(trans)
        for i, note in enumerate(notes_of(unary, starts)):
            log_z, node, pair, best, tie_path = brute_force(note, trans)
            assert abs(got_log_z[i] - log_z) < 1e-8
            assert np.abs(got_node[starts[i]:starts[i + 1]] - node).max() < 1e-8
            pair_sum += pair.sum(axis=0)
            assert abs(path_score(note, trans, got_paths[i]) - best) < 1e-9
            assert tuple(got_paths[i]) == tie_path
        assert np.abs(got_pair - pair_sum).max() < 1e-8


def test_pairwise_marginals_consistent_with_unary():
    for trial in range(20):
        rng = np.random.default_rng(500 + trial)
        unary, starts, trans = random_instance(rng)
        node, pair, _ = posteriors(unary, starts, trans)
        assert np.abs(node.sum(axis=1) - 1.0).max() < 1e-9
        assert np.all(node >= 0.0) and np.all(node <= 1.0 + 1e-12)
        # summed over every step: row sums give the node marginals of each
        # step that has a successor, column sums those of each that has a predecessor
        has_next = np.ones(len(node), dtype=bool)
        has_next[starts[1:] - 1] = False
        has_prev = np.ones(len(node), dtype=bool)
        has_prev[starts[:-1]] = False
        assert np.abs(pair.sum(axis=1) - node[has_next].sum(axis=0)).max() < 1e-8
        assert np.abs(pair.sum(axis=0) - node[has_prev].sum(axis=0)).max() < 1e-8


def test_partition_dominates_every_single_path():
    for trial in range(20):
        rng = np.random.default_rng(900 + trial)
        unary, starts, trans = random_instance(rng)
        _, _, log_z = posteriors(unary, starts, trans)
        for i, note in enumerate(notes_of(unary, starts)):
            t_len, y = note.shape
            for p in itertools.product(range(y), repeat=t_len):
                assert log_z[i] >= path_score(note, trans, p) - 1e-10


def test_viterbi_all_zero_scores_returns_lowest_ids():
    assert viterbi(np.zeros((8, 4)), np.array([0, 5, 6, 8]), np.zeros((4, 4))) == [
        [0] * 5, [0], [0] * 2]


def test_boosted_gold_path_wins():
    rng = np.random.default_rng(3)
    unary = rng.normal(0, 1, (5, 3))
    trans = rng.normal(0, 1, (3, 3))
    gold = [2, 0, 1, 1, 2]
    for t, lab in enumerate(gold):
        unary[t, lab] += 10.0
    assert viterbi(unary, np.array([0, 4, 5]), trans) == [gold[:4], gold[4:]]


def ragged_set(lengths, seed):
    """Synthetic records cut to the given lengths, in the given order."""
    scheme = default_synthetic_scheme()
    pool = [row for r in generate_synthetic(40, scheme, seed=seed).records
            for row in zip(r.words, r.labels)]
    rng = np.random.default_rng(seed)
    rows = []
    for length in lengths:
        start = int(rng.integers(len(pool) - length))
        rows.append(pool[start:start + length])
    return make_set(rows)


def test_one_call_over_ragged_notes_matches_per_note_results():
    scheme = default_synthetic_scheme()
    lengths = np.random.default_rng(60).permutation(np.arange(1, 31))
    rs = ragged_set(lengths, seed=61)
    model = CrfModel.build(rs, scheme, 1)
    w = np.random.default_rng(62).normal(0, 1, model.weights.shape)
    loss, grad = nll_and_grad(model, plan_fit(model, rs), w, 0.5)
    want_loss, want_grad = loop_nll_and_grad(model, rs, w, 0.5)
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    assert np.abs(grad - want_grad).max() <= 1e-10

    model.weights = w
    words = [r.words for r in rs.records]
    unary, starts, trans = model.scores(words)
    node, _, log_z = posteriors(unary, starts, trans)
    paths = predict_labels(model, words)
    for i, note in enumerate(words):
        alone = model.scores([note])
        assert np.array_equal(alone[0], unary[starts[i]:starts[i + 1]])
        # a one-note product need not add in the order of a k-row one
        one_node, _, one_log_z = posteriors(*alone)
        assert_close(one_node, node[starts[i]:starts[i + 1]])
        assert_close(one_log_z[0], log_z[i])
        assert predict_labels(model, [note]) == [paths[i]]
        assert paths[i] == loop_viterbi(alone[0], trans)


# note lengths of one call: ragged (in drawn order, so sorting and its ties
# matter), all of length 1 (no step at all), or one note alone
NOTE_LENGTHS = st.one_of(st.lists(st.integers(1, 60), min_size=1, max_size=8),
                         st.lists(st.just(1), min_size=1, max_size=8),
                         st.lists(st.integers(1, 60), min_size=1, max_size=1))


@given(st.integers(2, 40), NOTE_LENGTHS, st.floats(0.0, 50.0), st.floats(0.0, 50.0),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_posteriors_match_the_log_space_reference(y, lengths, unary_scale, trans_scale, seed):
    # |Y| from 2 to 40 crosses 8, where numpy starts to add a contiguous
    # row pairwise: the log-space recursion stays the reference's bits
    rng = np.random.default_rng(seed)
    starts = np.concatenate(([0], np.cumsum(lengths)))
    unary = rng.uniform(-unary_scale, unary_scale, (int(starts[-1]), y))
    transition = rng.uniform(-trans_scale, trans_scale, (y, y))
    got = posteriors(unary, starts, transition)
    want = posteriors(unary, starts, transition, recursion=crf._log_posteriors)
    for a, b in zip(got, want):
        assert_close(a, b)


WIDE = st.sampled_from((400.0, 800.0, 2000.0))


@given(st.integers(2, 4), st.lists(st.integers(1, 5), min_size=1, max_size=4), WIDE,
       st.one_of(WIDE, st.sampled_from((1.0, 50.0, 160.0))), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=120, deadline=None, derandomize=True)
def test_posteriors_stay_finite_and_close_at_wide_score_ranges(
        y, lengths, unary_scale, trans_scale, seed):
    # far apart scores underflow a scaled row sum; a transition range past
    # SCALED_MAX_RANGE runs the log-space recursion, a narrower one with
    # wide unary scores stays scaled; on notes this short, enumerating
    # every path is an oracle independent of both
    rng = np.random.default_rng(seed)
    starts = np.concatenate(([0], np.cumsum(lengths)))
    unary = rng.uniform(-unary_scale, unary_scale, (int(starts[-1]), y))
    transition = rng.uniform(-trans_scale, trans_scale, (y, y))
    with mock.patch.object(crf, "_log_posteriors", wraps=crf._log_posteriors) as log_space:
        node, pair, log_z = posteriors(unary, starts, transition)
    assert log_space.called == (np.ptp(transition) > crf.SCALED_MAX_RANGE)
    pair_sum = np.zeros_like(transition)
    for i, note in enumerate(notes_of(unary, starts)):
        want_log_z, want_node, want_pair, _, _ = brute_force(note, transition)
        assert_close(log_z[i], want_log_z)
        assert_close(node[starts[i]:starts[i + 1]], want_node)
        pair_sum += want_pair.sum(axis=0)
    assert_close(pair, pair_sum)


def scores_of(rng, kind, shape):
    """Random scores: integer-valued ones from five values, which tie at
    nearly every step and label, normal ones, or normal ones with about one
    entry in ten at -inf."""
    if kind == "integer":
        return rng.integers(-2, 3, shape).astype(float)
    scores = rng.normal(0.0, 3.0, shape)
    if kind == "with -inf":
        scores[rng.random(shape) < 0.1] = -np.inf
    return scores


@given(st.integers(1, 12), NOTE_LENGTHS, st.sampled_from(("integer", "normal", "with -inf")),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_viterbi_matches_the_per_note_reference(y, lengths, kind, seed):
    # integer-valued scores tie at nearly every step and label, so the
    # lowest-id rule is exercised everywhere
    rng = np.random.default_rng(seed)
    starts = np.concatenate(([0], np.cumsum(lengths)))
    unary = scores_of(rng, kind, (int(starts[-1]), y))
    transition = scores_of(rng, kind, (y, y))
    paths = viterbi(unary, starts, transition)
    assert len(paths) == len(lengths)
    for i, path in enumerate(paths):
        assert path == loop_viterbi(unary[starts[i]:starts[i + 1]], transition)


@pytest.mark.parametrize("starts, empty", [([0, 0, 3], 0), ([0, 3, 3], 1), ([0, 0], 0),
                                           ([0, 2, 2, 2], 1)])
def test_a_note_with_no_words_is_a_value_error(starts, empty):
    starts = np.array(starts)
    message = f"note {empty} has no words"
    unary, transition = np.zeros((int(starts[-1]), 3)), np.zeros((3, 3))
    with pytest.raises(ValueError, match=message):
        pack(starts)
    with pytest.raises(ValueError, match=message):
        posteriors(unary, starts, transition)
    with pytest.raises(ValueError, match=message):
        viterbi(unary, starts, transition)


def test_predict_labels_rejects_a_note_with_no_words():
    scheme = LabelScheme(labels=("N.A.", "a"))
    model = CrfModel.build(make_set([[("x", 0), ("y", 1)]]), scheme, 1)
    with pytest.raises(ValueError, match="note 0 has no words"):
        predict_labels(model, [[]])
    with pytest.raises(ValueError, match="note 1 has no words"):
        predict_labels(model, [["x"], [], ["y"]])
    assert predict_labels(model, [["x"], ["y"]]) == [[0], [0]]


def make_set(rows, split="train"):
    records = tuple(
        Record(id=f"r{i}", words=tuple(w for w, _ in row), labels=tuple(l for _, l in row))
        for i, row in enumerate(rows)
    )
    return RecordSet(split=split, records=records)


def test_nll_zero_weights_is_uniform_loss():
    scheme = LabelScheme(labels=("N.A.", "a", "b"))
    rs = make_set([[("x", 0), ("y", 1), ("z", 2), ("w", 0)]])
    model = CrfModel.build(rs, scheme, 1)
    loss, _ = nll_and_grad(model, plan_fit(model, rs), model.weights, 0.0)
    assert abs(loss - 4 * math.log(3)) < 1e-12


def test_nll_gradient_matches_finite_differences():
    worst_all = 0.0       # every coordinate above the zero filter
    worst_resolved = 0.0  # coordinates large enough for the FD quotient to resolve
    for trial in range(20):
        rng = np.random.default_rng(40 + trial)
        scheme = LabelScheme(labels=("N.A.", "a", "b"))
        rows = []
        for r in range(int(rng.integers(1, 4))):
            length = int(rng.integers(1, 5))
            rows.append([(f"w{int(rng.integers(6))}", int(rng.integers(3)))
                         for _ in range(length)])
        rs = make_set(rows)
        lam = float(rng.uniform(0, 2))
        model = CrfModel.build(rs, scheme, 1)
        plan = plan_fit(model, rs)
        w = rng.normal(0, 0.5, model.weights.shape)
        _, grad = nll_and_grad(model, plan, w, lam)
        eps = 1e-5
        for k in rng.choice(w.size, size=min(40, w.size), replace=False):
            wp = w.copy(); wp[k] += eps
            wm = w.copy(); wm[k] -= eps
            num = (nll_and_grad(model, plan, wp, lam)[0]
                   - nll_and_grad(model, plan, wm, lam)[0]) / (2 * eps)
            denom = abs(grad[k]) + abs(num)
            if denom > 1e-12:
                worst_all = max(worst_all, abs(grad[k] - num) / denom)
            if denom > 1e-4:
                worst_resolved = max(worst_resolved, abs(grad[k] - num) / denom)
    assert worst_all < 1e-5
    assert worst_resolved < 1e-6


def test_objective_matches_loop_oracle():
    scheme = default_synthetic_scheme()
    for trial in range(5):
        rng = np.random.default_rng(70 + trial)
        rs = generate_synthetic(int(rng.integers(1, 30)), scheme, seed=70 + trial)
        lam = float(rng.uniform(0, 2))
        model = CrfModel.build(rs, scheme, 1)
        w = rng.normal(0, 1, model.weights.shape)
        loss, grad = nll_and_grad(model, plan_fit(model, rs), w, lam)
        want_loss, want_grad = loop_nll_and_grad(model, rs, w, lam)
        assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
        assert np.abs(grad - want_grad).max() <= 1e-10


def assert_objective_matches_reference(model, rs, w, lam):
    loss, grad = nll_and_grad(model, plan_fit(model, rs), w, lam)
    want_loss, want_grad = reference_nll_and_grad(model, rs, w, lam)
    assert_close(loss, want_loss)
    assert_close(grad, want_grad)


def test_objective_matches_the_scatter_reference():
    scheme = default_synthetic_scheme()
    lengths = np.random.default_rng(63).permutation(np.arange(1, 31))
    rs = ragged_set(lengths, seed=64)
    rng = np.random.default_rng(65)
    empty = RecordSet(split="train", records=())
    # at cutoff 2 some template columns of the training notes are pads; at
    # cutoff 1000 the index keeps no observation and every column is a pad
    for cutoff, some_pads, all_pads in ((1, False, False), (2, True, False), (1000, True, True)):
        model = CrfModel.build(rs, scheme, cutoff)
        pads = plan_fit(model, rs).ids == model.index.num_obs
        assert (pads.any(), pads.all()) == (some_pads, all_pads)
        w = rng.normal(0, 1, model.weights.shape)
        draw = rng.random(w.size)
        w[draw < 0.2] = 0.0
        w[draw > 0.8] = -0.0
        signed_zeros = np.where(rng.random(w.size) < 0.5, 0.0, -0.0)
        for weights in (w, signed_zeros):
            for lam in (0.0, 0.5):
                assert_objective_matches_reference(model, rs, weights, lam)
        assert_objective_matches_reference(model, empty, w, 0.5)


def test_train_matches_lbfgs_over_the_scatter_reference():
    scheme = default_synthetic_scheme()
    rs = ragged_set(np.random.default_rng(66).permutation(np.arange(1, 13)), seed=67)
    for cutoff in (1, 2):
        model = CrfModel.build(rs, scheme, cutoff)
        fitted, history, converged = train(model, rs, 0.5, 12, GRAD_TOL)
        plan = plan_fit(model, rs)
        same = reference_minimize_lbfgs(
            lambda w: nll_and_grad(model, plan, w, 0.5), model.weights, 12, GRAD_TOL)
        assert fitted.weights.tobytes() == same[0].tobytes()
        assert np.array(history).tobytes() == np.array(same[1]).tobytes()
        want, want_history, want_converged = reference_minimize_lbfgs(
            lambda w: reference_nll_and_grad(model, rs, w, 0.5), model.weights, 12, GRAD_TOL)
        assert_close(fitted.weights, want)
        assert_close(history, want_history)
        assert converged == want_converged


def test_scores_unary_equals_per_position_sums_bitwise():
    scheme = default_synthetic_scheme()
    model = CrfModel.build(generate_synthetic(40, scheme, seed=26), scheme, 1)
    model.weights = np.random.default_rng(27).normal(0, 1, model.weights.shape)
    unary_w, trans_w = model.split(model.weights)
    notes = [rec.words for rec in generate_synthetic(30, scheme, seed=28).records]
    unary, starts, trans = model.scores(notes)
    assert np.array_equal(trans, trans_w)
    obs_id = id_of(model.index)
    for i, words in enumerate(notes):
        want = np.zeros((len(words), len(scheme.labels)))
        for pos, firings in enumerate(extract_features(words)):
            active = [obs_id[key] for key in firings if key in obs_id]
            if active:
                want[pos] = unary_w[active].sum(axis=0)
        assert np.array_equal(unary[starts[i]:starts[i + 1]], want)


def test_regularizer_only_gradient_for_empty_records():
    scheme = LabelScheme(labels=("N.A.", "a"))
    fit_on = make_set([[("x", 0), ("y", 1)]])
    model = CrfModel.build(fit_on, scheme, 1)
    empty = RecordSet(split="train", records=())
    w = np.arange(model.weights.size, dtype=np.float64)
    loss, grad = nll_and_grad(model, plan_fit(model, empty), w, 0.5)
    assert np.array_equal(grad, 0.5 * w)
    assert abs(loss - 0.25 * float(w @ w)) < 1e-9


def test_train_separable_records_reach_full_accuracy():
    scheme = default_synthetic_scheme()
    rs = generate_synthetic(10, scheme, seed=21)
    model = CrfModel.build(rs, scheme, 1)
    fitted, history, converged = train(model, rs, 0.05, MAX_ITERS, GRAD_TOL)
    assert converged
    assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))
    assert predict_labels(fitted, (rec.words for rec in rs.records)) == [
        list(rec.labels) for rec in rs.records]


def test_train_reports_when_lbfgs_stops_short():
    scheme = default_synthetic_scheme()
    rs = generate_synthetic(10, scheme, seed=21)
    model = CrfModel.build(rs, scheme, 1)
    _, history, converged = train(model, rs, 0.05, 1, GRAD_TOL)
    assert len(history) == 2
    assert not converged


def test_viterbi_score_dominates_gold_after_convergence():
    scheme = default_synthetic_scheme()
    rs = generate_synthetic(8, scheme, seed=22)
    fitted, _, _ = train(CrfModel.build(rs, scheme, 1), rs, 0.05, MAX_ITERS, GRAD_TOL)
    unary, starts, trans = fitted.scores(rec.words for rec in rs.records)
    paths = viterbi(unary, starts, trans)
    for rec, note, best in zip(rs.records, notes_of(unary, starts), paths):
        assert path_score(note, trans, best) >= path_score(note, trans, rec.labels) - 1e-9


def test_huge_l2_drives_weights_to_zero():
    scheme = default_synthetic_scheme()
    rs = generate_synthetic(5, scheme, seed=23)
    model = CrfModel.build(rs, scheme, 1)
    fitted, _, _ = train(model, rs, 1e6, MAX_ITERS, GRAD_TOL)
    assert np.abs(fitted.weights).max() < 1e-3
    node, _, _ = posteriors(*fitted.scores([rs.records[0].words]))
    assert np.abs(node - 1.0 / len(scheme.labels)).max() < 1e-3


def test_training_is_bitwise_deterministic():
    scheme = default_synthetic_scheme()
    rs = generate_synthetic(12, scheme, seed=24)
    a, _, _ = train(CrfModel.build(rs, scheme, 1), rs, 1.0, MAX_ITERS, GRAD_TOL)
    b, _, _ = train(CrfModel.build(rs, scheme, 1), rs, 1.0, MAX_ITERS, GRAD_TOL)
    assert np.array_equal(a.weights, b.weights)


def test_train_rejects_empty_set():
    scheme = LabelScheme(labels=("N.A.", "a"))
    model = CrfModel.build(make_set([[("x", 0)]]), scheme, 1)
    with pytest.raises(ValueError):
        train(model, RecordSet(split="train", records=()), 1.0, MAX_ITERS, GRAD_TOL)


def test_real_fits_never_take_the_log_space_path():
    # the log-space recursion is the slow, plain one: fits of the synthetic
    # notes keep their transition range within SCALED_MAX_RANGE
    scheme = default_synthetic_scheme()
    rs = generate_synthetic(80, scheme, seed=31)
    with mock.patch.object(crf, "_packed_posteriors", wraps=crf._packed_posteriors) as calls, \
            mock.patch.object(crf, "_log_posteriors", wraps=crf._log_posteriors) as log_space:
        train(CrfModel.build(rs, scheme, 1), rs, 1.0, 40, GRAD_TOL)
    assert calls.call_count >= 40
    assert not log_space.called


@pytest.mark.parametrize("slot, value", [
    (0, math.inf), (0, -math.inf), (0, math.nan),
    (-1, math.inf), (0, 1e308), (-1, 1e308),
], ids=["inf", "-inf", "nan", "transition-inf", "unary-1e308", "transition-1e308"])
def test_training_from_a_non_finite_weight_diverges_quietly(slot, value):
    # filterwarnings = error turns any numpy warning on the way into a failure;
    # slot 0 is a unary weight (observation 0, label 0), slot -1 a transition
    scheme = default_synthetic_scheme()
    rs = generate_synthetic(6, scheme, seed=32)
    model = CrfModel.build(rs, scheme, 1)
    model.weights[slot] = value
    with pytest.raises(TrainingDivergence, match="non-finite initial loss"):
        train(model, rs, 1.0, MAX_ITERS, GRAD_TOL)


def test_lbfgs_diverging_objective_raises():
    def bad(w):
        with np.errstate(over="ignore"):
            return float(-np.exp(w[0])), np.array([-np.exp(w[0])])

    with pytest.raises(TrainingDivergence):
        minimize_lbfgs(bad, np.array([700.0]), 50, GRAD_TOL)


def test_lbfgs_gives_up_when_no_direction_descends():
    # the gradient points uphill: the line search fails along the L-BFGS
    # direction and again along the steepest-descent restart
    def uphill(x):
        return x @ x, -2 * x

    start = np.array([1.0, -2.0])
    x, history, converged = minimize_lbfgs(uphill, start, 10, 1e-9)
    assert np.array_equal(x, start)
    assert history == [5.0]
    assert converged is False


def lbfgs_paths(fun, x0, max_iters, grad_tol, monkeypatch):
    """minimize_lbfgs's result, with the number of steepest-descent restarts
    and of curvature pairs it accepted and rejected, read from its line
    searches."""
    searches = []

    def recorded(fun, x, f0, g0, direction):
        result = _wolfe_line_search(fun, x, f0, g0, direction)
        searches.append((x, g0, direction, result))
        return result

    monkeypatch.setattr(crf, "_wolfe_line_search", recorded)
    out = minimize_lbfgs(fun, x0, max_iters, grad_tol)
    restarts = sum(a[3] is None and b[0] is a[0] for a, b in zip(searches, searches[1:]))
    sy = [crf._dot(r[0] * d, r[2] - g) for _, g, d, r in searches if r is not None]
    return out, restarts, sum(v > 1e-10 for v in sy), sum(v <= 1e-10 for v in sy)


def test_lbfgs_is_byte_equal_to_the_reference(monkeypatch):
    rng = np.random.default_rng(8)
    n = 40
    # far from its minimum a pseudo-Huber sum has a near-constant slope: the
    # first search, along -g/|g|, runs out of doublings, and the restart
    # along -g overshoots and zooms in
    c, centre, width = rng.uniform(50, 200, n), rng.uniform(1.8e7, 3e7, n), 1e4

    def huber(x):
        r = np.sqrt(width ** 2 + (x - centre) ** 2)
        return float(c @ r), c * (x - centre) / r

    a = rng.normal(0, 1, (n, n))
    h, b = a @ a.T / n + np.diag(np.geomspace(1e-3, 10, n)), rng.normal(0, 1, n)

    # near the optimum of an ill-conditioned quadratic the steps shrink
    # until s.y <= 1e-10 while the gradient is still above the tolerance
    def quad(x):
        return 0.5 * float(x @ h @ x) - float(b @ x), h @ x - b

    for fun, max_iters, grad_tol, (want_restarts, want_rejected) in (
            (huber, 60, 1e-6, (1, False)),
            (quad, 300, 1e-13, (2, True)),
            (quad, 20, 1e-6, (0, False))):
        (x, history, converged), restarts, accepted, rejected = lbfgs_paths(
            fun, np.zeros(n), max_iters, grad_tol, monkeypatch)
        assert (restarts, rejected > 0) == (want_restarts, want_rejected)
        assert accepted > 10      # the history is full and drops its oldest pair
        want_x, want_history, want_converged = reference_minimize_lbfgs(
            fun, np.zeros(n), max_iters, grad_tol)
        assert x.tobytes() == want_x.tobytes()
        assert np.array(history).tobytes() == np.array(want_history).tobytes()
        assert converged is want_converged


def test_lbfgs_solves_quadratic():
    rng = np.random.default_rng(6)
    a = rng.normal(0, 1, (8, 8))
    h = a @ a.T + 0.5 * np.eye(8)
    b = rng.normal(0, 1, 8)

    def quad(w):
        return 0.5 * float(w @ h @ w) - float(b @ w), h @ w - b

    x, history, converged = minimize_lbfgs(quad, np.zeros(8), MAX_ITERS, GRAD_TOL)
    assert converged
    assert np.abs(h @ x - b).max() < 1e-4
    assert all(later <= sooner + 1e-12 for sooner, later in zip(history, history[1:]))


def test_crf_serialization_round_trip(tmp_path):
    scheme = default_synthetic_scheme()
    rs = generate_synthetic(6, scheme, seed=25)
    fitted, _, _ = train(CrfModel.build(rs, scheme, 1), rs, 1.0, 15, GRAD_TOL)
    features, weights = tmp_path / "features.tsv", tmp_path / "weights.tarch"
    save_crf(fitted, str(features), str(weights))
    rows = features.read_text(encoding="utf-8").splitlines()
    # one row per observation, in id order
    assert len(rows) == fitted.index.num_obs
    names = [name for name, _ in UNIGRAM_TEMPLATES]
    for obs, (ti, words) in enumerate(fitted.index.obs):
        assert rows[obs].split("\t") == [names[ti], *words]
    back = load_crf(str(features), str(weights), scheme)
    assert back.index.obs == fitted.index.obs
    assert np.array_equal(back.weights, fitted.weights)
    notes = [rec.words for rec in rs.records]
    assert predict_labels(back, notes) == predict_labels(fitted, notes)

    bad = tmp_path / "bad.tsv"
    for text, message in (
        ("bigram\tN.A.\talpha\n", "unknown template"),
        ("w[0]\ta\tb\n", "expects 1 word"),
        ("w[0]\ta\nw[0]\ta\n", "duplicate"),
        ("".join(row + "\n" for row in rows[:-1]), "weights shape"),
    ):
        bad.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            load_crf(str(bad), str(weights), scheme)


@given(WORD_LISTS, st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_corrupted_features_file_is_rejected_or_round_trips(words, data):
    scheme = LabelScheme(labels=("N.A.", "a"))
    note = Record(id="r", words=tuple(words), labels=(0,) * len(words))
    model = CrfModel.build(RecordSet(split="train", records=(note,)), scheme, 1)
    model.weights = np.arange(model.weights.size, dtype=np.float64)
    with tempfile.TemporaryDirectory() as tmp:
        features, weights = Path(tmp, "features.tsv"), Path(tmp, "weights.tarch")
        again, again_weights = Path(tmp, "again.tsv"), Path(tmp, "again.tarch")
        save_crf(model, str(features), str(weights))
        raw = features.read_bytes()
        for corrupted in corruptions(raw, draw_offset(data, raw)):
            features.write_bytes(corrupted)
            try:
                back = load_crf(str(features), str(weights), scheme)
            except ValueError:
                continue
            save_crf(back, str(again), str(again_weights))
            assert again.read_bytes() == as_saved(corrupted)
            assert again_weights.read_bytes() == weights.read_bytes()
