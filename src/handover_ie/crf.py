"""Linear-chain CRF with surface feature templates and exact inference.

Unary features are indicator functions over word windows around the
current position (previous/current/next words and their conjunctions),
each conjoined with the current label; a |Y| x |Y| block of weights scores
label transitions. Notes are featurized from their words alone, once,
into a [positions, templates] matrix of observation ids, so the unary
scores are one gather and one sum over its rows. Inference is
forward-backward and Viterbi, each run once over all notes of a call in a
length-sorted packed layout. Forward-backward is Rabiner's scaled
recursion in probability space, one small matrix product per step; when
the transition weights span more than SCALED_MAX_RANGE, it runs over the
same rows in log space (see _packed_posteriors). Training is penalized
maximum likelihood under a limited-memory quasi-Newton optimizer with a
strong Wolfe line search whose dot products add in one fixed order at any
BLAS thread count, so runs are bit-reproducible.
A fit lays its notes out once and reads their gold labels there
(plan_fit): each objective call then scores in packed order, reads the
gold path by gather and scatters the unary gradient with one bincount. A
saved model is a features file with one row per observation, in id
order, plus a weights archive.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .corpus import LabelScheme, RecordSet, read_lines, read_text
from .tensor import TrainingDivergence, load_archive, save_archive

BOS = "__BOS__"
EOS = "__EOS__"

# (name, word offsets) for the unary templates, in firing order; each
# template's offsets are consecutive and stay within one word of the
# current position.
UNIGRAM_TEMPLATES: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("w[-1]", (-1,)),
    ("w[0]", (0,)),
    ("w[+1]", (1,)),
    ("w[-1]|w[0]", (-1, 0)),
    ("w[0]|w[+1]", (0, 1)),
    ("w[-1]|w[0]|w[+1]", (-1, 0, 1)),
)

# (template index, start, stop): at position p a template's surface is
# padded[p + start:p + stop] of the BOS/EOS-padded words
TEMPLATE_SLICES = tuple((ti, 1 + offs[0], 2 + offs[-1])
                        for ti, (_, offs) in enumerate(UNIGRAM_TEMPLATES))

# L-BFGS history length, strong Wolfe sufficient-decrease/curvature constants,
# and the most trial steps one line search (and each of its zooms) takes
LBFGS_MEMORY = 10
WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9
WOLFE_MAX_STEPS = 25


class Featurized(NamedTuple):
    """Notes as flat arrays: row p of ``ids`` holds the observation ids of
    position p of the concatenated notes, one column per template in
    template order, with the index's ``num_obs`` (the pad id) where a
    surface was not indexed; note i spans positions ``starts[i]:starts[i +
    1]``."""

    ids: np.ndarray
    starts: np.ndarray


class FeatureIndex:
    """Maps (template, surface) observations seen in training to dense ids."""

    def __init__(self):
        self.obs: dict[tuple[int, tuple[str, ...]], int] = {}

    @property
    def num_obs(self) -> int:
        return len(self.obs)

    def fit(self, record_words: Iterable[Sequence[str]], min_count: int) -> "FeatureIndex":
        """Index observations seen at least min_count times (1 = keep all);
        ids follow the order in which observations reach min_count."""
        if min_count < 1:
            raise ValueError("min_count must be >= 1")
        seen: dict[tuple[int, tuple[str, ...]], int] = {}
        for words in record_words:
            padded = (BOS, *words, EOS)
            for p in range(len(words)):
                for ti, a, b in TEMPLATE_SLICES:
                    key = (ti, padded[p + a:p + b])
                    seen[key] = count = seen.get(key, 0) + 1
                    if count >= min_count and key not in self.obs:
                        self.obs[key] = len(self.obs)
        return self

    def transform(self, notes: Iterable[Sequence[str]]) -> Featurized:
        """Featurize notes given as words; an unseen surface gets the pad id."""
        ids, starts = [], [0]
        get, pad = self.obs.get, self.num_obs
        for words in notes:
            padded = (BOS, *words, EOS)
            ids.extend(get((ti, padded[p + a:p + b]), pad)
                       for p in range(len(words)) for ti, a, b in TEMPLATE_SLICES)
            starts.append(starts[-1] + len(words))
        return Featurized(np.array(ids, dtype=np.int64).reshape(-1, len(TEMPLATE_SLICES)),
                          np.array(starts, dtype=np.int64))


def weight_count(num_obs: int, num_labels: int) -> int:
    """Length of a weight vector in the CrfModel.split layout."""
    return num_obs * num_labels + num_labels ** 2


def unary_scores(unary_w: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """[rows, |Y|] sums of the unary weights of each row of an id matrix
    (Featurized.ids, or its rows in any order); the pad id scores zero.

    Each row's weights are added onto +0.0 one at a time in template order,
    so a note scores bit-identically alone or among others, in flat or
    packed order.
    """
    if not len(unary_w):      # an index that kept no observation: every id is the pad
        return np.zeros((len(ids), unary_w.shape[1]))
    # the pad id clips to the last row, whose copies are then zeroed; this
    # spares a copy of the weights with a zero row appended
    rows = unary_w.take(ids, axis=0, mode="clip")
    rows[ids == len(unary_w)] = 0.0
    return np.add.reduce(rows, axis=1, initial=0.0)


@dataclass
class CrfModel:
    """Weight vector over (observation, label) slots plus a transition block."""

    num_labels: int
    index: FeatureIndex
    weights: np.ndarray

    @classmethod
    def build(cls, train: RecordSet, scheme: LabelScheme, feature_cutoff: int) -> "CrfModel":
        """Index the observations of the training words, zero weights."""
        index = FeatureIndex().fit((r.words for r in train.records), feature_cutoff)
        n = weight_count(index.num_obs, len(scheme.labels))
        return cls(num_labels=len(scheme.labels), index=index, weights=np.zeros(n))

    def split(self, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Views of a weight vector as its unary [obs, |Y|] and transition
        [|Y|, |Y|] blocks.

        Layout: unary slot(obs, y) = obs * |Y| + y; the |Y|^2 transition
        weights follow, row-major by (previous label, current label).
        """
        n_obs, y = self.index.num_obs, self.num_labels
        expected = weight_count(n_obs, y)
        if weights.shape != (expected,):
            raise ValueError(f"weights shape {weights.shape}, expected ({expected},)")
        return weights[:n_obs * y].reshape(n_obs, y), weights[n_obs * y:].reshape(y, y)

    def scores(self, notes: Iterable[Sequence[str]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(unary [positions, |Y|], note starts, transition [|Y|, |Y|]) for
        the concatenated notes; note i spans rows starts[i]:starts[i + 1]."""
        unary_w, trans = self.split(self.weights)
        feats = self.index.transform(notes)
        return unary_scores(unary_w, feats.ids), feats.starts, trans


# ndarray.max and .sum call these same reduces through a Python wrapper, so
# the bare ufuncs give the same bits at less cost per call
def _logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    m = np.maximum.reduce(a, axis=axis, keepdims=True)
    return (m + np.log(np.add.reduce(np.exp(a - m), axis=axis, keepdims=True))).squeeze(axis)


# the widest transition range, max T - min T, that _packed_posteriors runs
# in probability space: exp(2 * 330) times the smallest normal float is
# about 1e-21
SCALED_MAX_RANGE = 330.0
# the most rows one product of the scaled pair sum adds over: OpenBLAS was
# seen to give other bits at 2 threads than at 1 for a sum over 768 rows at
# 37 labels, and the same bits over 512
PAIR_ROWS = 512


class Packed(NamedTuple):
    """Notes in time-major packed order: step 0 of every note, then step 1
    of every note that has one, and so on. Notes are sorted by length,
    longest first (ties keep input order), so the notes still running at a
    step are a prefix of the sorted notes and each step's rows are one
    contiguous block, in sorted-note order."""

    perm: np.ndarray      # flat position held by each packed row
    note: np.ndarray      # sorted-note index of each packed row
    steps: list[tuple[int, int, int]]   # per step after the first: (start of the
                                        # previous block, start, end)
    last: np.ndarray      # packed row of each sorted note's last position
    order: np.ndarray     # input index of each sorted note


def pack(starts: np.ndarray) -> Packed:
    """Packed layout of notes spanning flat rows starts[i]:starts[i + 1];
    a note with no rows is a ValueError."""
    lengths = starts[1:] - starts[:-1]
    order = np.argsort(-lengths, kind="stable")
    lengths = lengths[order]
    if lengths.size and lengths[-1] == 0:   # empty notes sort last, in input order
        raise ValueError(f"note {int(order[lengths.argmin()])} has no words")
    running = np.arange(lengths[0] if lengths.size else 0)[:, None] < lengths   # [steps, notes]
    step, note = running.nonzero()
    offsets = [0, *np.bincount(step).cumsum().tolist()]   # block bounds, one per step
    last = [offsets[n - 1] + i for i, n in enumerate(lengths.tolist())]
    return Packed(starts[order][note] + step, note, list(zip(offsets, offsets[1:], offsets[2:])),
                  np.array(last, dtype=np.int64), order)


def _packed_posteriors(
    u: np.ndarray, pk: Packed, transition: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Posteriors of unary rows u given in pk's packed order: the node
    marginals in packed order, the pairwise marginals summed over every
    note and step, and log Z in sorted-note order. Each recursion runs
    once over all notes, one step at a time; no array holds a pairwise
    marginal per position.

    The recursion is Rabiner's scaled forward-backward, in probability
    space and the packed row layout. With eu = exp(u - rowmax u) and
    et = exp(T - max T), each step of the k running notes is one
    [k, |Y|] @ [|Y|, |Y|] product and no exp:
    alpha_t = (alpha_{t-1} @ et) * eu_t / s_t, where s_t is each row's
    sum, so every alpha row sums to 1. Backward, beta is 1 at each note's
    last row and beta_{t-1} = ((eu_t / s_t) * beta_t) @ et.T. A note's
    log Z is the sum over its rows of log s + rowmax u, plus (length - 1)
    max T. The node marginals are alpha * beta; the pair sum is the
    product of every alpha row that has a successor with that successor's
    (eu / s) * beta, PAIR_ROWS rows at a time, times et.

    With finite scores and R = max T - min T, the transition range, every
    row sum lies in [exp(-R), |Y|] and every beta within exp(+-R), so a
    value lost below the smallest normal float weighs at most about
    exp(2R) times that float in any result. A call whose R is past
    SCALED_MAX_RANGE runs the log-space recursion (_log_posteriors)
    instead. Non-finite scores give a non-finite log Z on either path;
    nll_and_grad, the one caller, silences their numpy warnings.
    """
    t_max = np.maximum.reduce(transition, axis=None)
    if not t_max - np.minimum.reduce(transition, axis=None) <= SCALED_MAX_RANGE:
        return _log_posteriors(u, pk, transition)      # the wide-range path
    top = np.maximum.reduce(u, axis=1)
    first = pk.steps[0][1] if pk.steps else len(u)    # rows of step 0
    et = np.exp(transition - t_max)
    eu = np.exp(u - top[:, None])
    alpha = eu.copy()
    s = np.add.reduce(alpha, axis=1)     # step 0's sums; later rows are overwritten
    alpha[:first] /= s[:first, None]
    for prev, lo, hi in pk.steps:
        block = alpha[lo:hi]
        block *= alpha[prev:prev + hi - lo] @ et
        np.add.reduce(block, axis=1, out=s[lo:hi])
        block /= s[lo:hi, None]
    eu /= s[:, None]
    beta = np.ones_like(eu)
    for prev, lo, hi in reversed(pk.steps):
        w = eu[lo:hi]      # becomes (eu / s) * beta of the step's rows
        w *= beta[lo:hi]
        np.matmul(w, et.T, out=beta[prev:prev + hi - lo])
    has_next = np.ones(len(u), dtype=bool)
    has_next[pk.last] = False
    before, after = alpha[has_next], eu[first:]    # each row with its successor
    pair = np.zeros_like(et)
    for i in range(0, len(after), PAIR_ROWS):
        pair += before[i:i + PAIR_ROWS].T @ after[i:i + PAIR_ROWS]
    pair *= et
    alpha *= beta
    log_z = (np.bincount(pk.note) - 1) * t_max
    log_z += np.bincount(pk.note, weights=np.log(s) + top)
    return alpha, pair, log_z


def _log_posteriors(
    u: np.ndarray, pk: Packed, transition: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_packed_posteriors in log space, the wide-range path: the same
    recursion over the same packed rows, with each step's sum over labels
    a logsumexp over a [k, |Y|, |Y|] block of the k running notes."""
    alpha = u.copy()
    for prev, lo, hi in pk.steps:
        alpha[lo:hi] += _logsumexp(alpha[prev:prev + hi - lo, :, None] + transition, axis=1)
    log_z = _logsumexp(alpha[pk.last], axis=1)
    beta = np.zeros_like(u)      # zero at each note's last position
    pair = np.zeros_like(transition)
    for prev, lo, hi in reversed(pk.steps):
        k = hi - lo
        beta[prev:prev + k] = _logsumexp(
            transition + u[lo:hi, None, :] + beta[lo:hi, None, :], axis=2)
        joint = alpha[prev:prev + k, :, None] + transition
        joint += (u[lo:hi] + beta[lo:hi])[:, None, :]
        joint -= log_z[:k, None, None]
        pair += np.add.reduce(np.exp(joint, out=joint), axis=0)
    alpha += beta
    alpha -= log_z[pk.note][:, None]
    return np.exp(alpha, out=alpha), pair, log_z


def viterbi(unary: np.ndarray, starts: np.ndarray, transition: np.ndarray) -> list[list[int]]:
    """Highest-scoring path of each note, all notes decoded in one pass;
    ties resolve to the lower label id at each step."""
    pk = pack(starts)
    score = unary[pk.perm]   # filled in place, step by step: each row's best path score
    back = np.empty(score.shape, dtype=np.int64)
    # one step is a handful of numpy calls on tiny arrays, which is all a
    # one-note call does: out=, the bare ufunc reduce and adding into a
    # bound block skip a copy, a Python wrapper and a slice write-back each
    for prev, lo, hi in pk.steps:
        cand = score[prev:prev + hi - lo, :, None] + transition
        cand.argmax(axis=1, out=back[lo:hi])       # argmax returns the first (lowest) id
        block = score[lo:hi]
        block += np.maximum.reduce(cand, axis=1)
    # Chase the back-pointers one scalar at a time: a row at step t points
    # into the row of the same note at step t - 1, one block earlier. A
    # vector op per step would cost ten scalar steps on a one-note call.
    rows, y = back.shape
    pointers = back.ravel().tolist()      # row r, label j at r * |Y| + j
    path = [0] * rows
    for r, best in zip(pk.last.tolist(), score[pk.last].argmax(axis=1).tolist()):
        path[r] = best
    for prev, lo, hi in reversed(pk.steps):
        for r in range(lo, hi):
            path[r - lo + prev] = pointers[r * y + path[r]]
    labels = [0] * rows
    for r, flat in enumerate(pk.perm.tolist()):
        labels[flat] = path[r]
    bounds = starts.tolist()
    return [labels[a:b] for a, b in zip(bounds, bounds[1:])]


class FitPlan(NamedTuple):
    """Labelled notes laid out once per fit: everything nll_and_grad needs
    that does not depend on the weights. Gold cells, gold transitions and
    firings keep flat order (position, then template), so every sum adds
    its terms in the order of the flat layout."""

    packed: Packed
    ids: np.ndarray          # Featurized.ids in packed row order
    gold_cells: np.ndarray   # each position's gold cell, a flat index into packed [rows, |Y|]
    gold_pairs: np.ndarray   # flat index (previous * |Y| + current) of each gold transition
    gold_counts: np.ndarray  # [|Y|, |Y|] count of each gold transition
    slots: np.ndarray        # unary weight slot of each (firing, label), label fastest
    firing_rows: np.ndarray  # packed row of each firing
    by_input: np.ndarray     # sorted-note index of each input note


def plan_fit(model: CrfModel, records: RecordSet) -> FitPlan:
    """The FitPlan of the records' words, featurized by model's index, and
    their gold labels."""
    y = model.num_labels
    feats = model.index.transform(r.words for r in records.records)
    pk = pack(feats.starts)
    row_of = np.empty_like(pk.perm)
    row_of[pk.perm] = np.arange(pk.perm.size)
    gold = np.array([label for r in records.records for label in r.labels], dtype=np.int64)
    # gold transitions stay inside a record: skip each record's last position
    inner = np.ones(gold.size, dtype=bool)
    inner[feats.starts[1:] - 1] = False
    pairs = (gold[:-1] * y + gold[1:])[inner[:-1]]
    fires = feats.ids != model.index.num_obs
    slots = (feats.ids[fires][:, None] * y + np.arange(y)).reshape(-1)
    return FitPlan(
        packed=pk,
        ids=feats.ids[pk.perm],
        gold_cells=row_of * y + gold,
        gold_pairs=pairs,
        gold_counts=np.bincount(pairs, minlength=y * y).reshape(y, y),
        slots=slots,
        firing_rows=np.broadcast_to(row_of[:, None], feats.ids.shape)[fires],
        by_input=np.argsort(pk.order),
    )


def nll_and_grad(
    model: CrfModel, plan: FitPlan, weights: np.ndarray, l2_lambda: float
) -> tuple[float, np.ndarray]:
    """Penalized negative log-likelihood of the planned notes at the given
    weights, and its exact gradient.

    loss = sum over notes of (log Z - gold path score) + (lambda/2) ||w||^2;
    gradient = expected feature counts - empirical counts + lambda * w.
    """
    unary_w, trans_w = model.split(weights)
    # overflowing weights give a non-finite loss, which L-BFGS raises as TrainingDivergence
    with np.errstate(over="ignore", invalid="ignore"):
        u = unary_scores(unary_w, plan.ids)
        node, pair_sum, log_z = _packed_posteriors(u, plan.packed, trans_w)
        # log Z summed in input-note order, the gold path in flat order
        loss = float(log_z[plan.by_input].sum()) - float(
            u.reshape(-1)[plan.gold_cells].sum() + trans_w.reshape(-1)[plan.gold_pairs].sum())

        node.reshape(-1)[plan.gold_cells] -= 1.0
        # bincount adds into each slot in firing order, one term at a time
        grad_unary = np.bincount(plan.slots, weights=node[plan.firing_rows].reshape(-1),
                                 minlength=unary_w.size)
        grad = np.concatenate((grad_unary, (pair_sum - plan.gold_counts).reshape(-1)))

        loss += 0.5 * l2_lambda * _dot(weights, weights)
        grad += l2_lambda * weights
    return loss, grad


# --- limited-memory quasi-Newton optimizer -------------------------------------

def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b of two vectors, added in one fixed order: OpenBLAS splits a
    long `a @ b` across its threads, so that gives other bits at another
    thread count."""
    return float(np.einsum("i,i->", a, b))


def _wolfe_line_search(
    fun: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x: np.ndarray,
    f0: float,
    g0: np.ndarray,
    direction: np.ndarray,
) -> tuple[float, float, np.ndarray] | None:
    """Strong Wolfe search along direction; returns (step, f, g) or None."""
    d0 = _dot(g0, direction)
    if d0 >= 0.0:
        return None

    def phi(step: float) -> tuple[float, float, np.ndarray]:
        f, g = fun(x + step * direction)
        if not np.isfinite(f):
            raise TrainingDivergence(f"non-finite loss {f} during line search")
        return f, _dot(g, direction), g

    def zoom(lo, f_lo, hi) -> tuple[float, float, np.ndarray] | None:
        for _ in range(WOLFE_MAX_STEPS):
            step = 0.5 * (lo + hi)
            f, d, g = phi(step)
            if f > f0 + WOLFE_C1 * step * d0 or f >= f_lo:
                hi = step
            else:
                if abs(d) <= -WOLFE_C2 * d0:
                    return step, f, g
                if d * (hi - lo) >= 0.0:
                    hi = lo
                lo, f_lo = step, f
        return None

    prev_step, prev_f = 0.0, f0
    step = 1.0
    for i in range(WOLFE_MAX_STEPS):
        f, d, g = phi(step)
        if f > f0 + WOLFE_C1 * step * d0 or (i > 0 and f >= prev_f):
            return zoom(prev_step, prev_f, step)
        if abs(d) <= -WOLFE_C2 * d0:
            return step, f, g
        if d >= 0.0:
            return zoom(step, f, prev_step)
        prev_step, prev_f = step, f
        step *= 2.0
    return None


def minimize_lbfgs(
    fun: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    max_iters: int,
    grad_tol: float,
) -> tuple[np.ndarray, list[float], bool]:
    """Two-loop-recursion L-BFGS for at most max_iters iterations; converged
    means the largest gradient entry is at most grad_tol. Returns (x,
    accepted losses, converged)."""
    x = x0.astype(np.float64)
    f, g = fun(x)
    if not np.isfinite(f):
        raise TrainingDivergence(f"non-finite initial loss {f}")
    history = [f]
    # accepted curvature pairs, oldest first: (s, y, rho = 1/(s.y), gamma = s.y/(y.y))
    pairs: list[tuple[np.ndarray, np.ndarray, float, float]] = []
    scratch = np.empty_like(x)
    for _ in range(max_iters):
        gnorm = float(np.abs(g).max()) if g.size else 0.0
        if gnorm <= grad_tol:
            return x, history, True
        q = g.copy()
        alphas = []
        for s, yv, rho, _ in reversed(pairs):
            a = rho * _dot(s, q)
            alphas.append(a)
            q -= np.multiply(yv, a, out=scratch)
        q *= pairs[-1][3] if pairs else 1.0 / max(gnorm, 1.0)
        for a, (s, yv, rho, _) in zip(reversed(alphas), pairs):
            b = rho * _dot(yv, q)
            q += np.multiply(s, a - b, out=scratch)
        direction = -q
        result = _wolfe_line_search(fun, x, f, g, direction)
        if result is None:
            # restart along steepest descent; give up if that fails too
            direction = -g
            result = _wolfe_line_search(fun, x, f, g, direction)
            if result is None:
                return x, history, False
            pairs.clear()
        step, f_new, g_new = result
        s = step * direction
        yv = g_new - g
        sy = _dot(s, yv)
        if sy > 1e-10:
            pairs.append((s, yv, 1.0 / sy, sy / _dot(yv, yv)))
            if len(pairs) > LBFGS_MEMORY:
                pairs.pop(0)
        x = x + s
        f, g = f_new, g_new
        history.append(f)
    return x, history, float(np.abs(g).max()) <= grad_tol


def train(
    model: CrfModel, records: RecordSet, l2_lambda: float, max_iters: int, grad_tol: float
) -> tuple[CrfModel, list[float], bool]:
    """Fit weights by penalized maximum likelihood, starting from the
    model's; deterministic. Returns the fitted model, the accepted losses
    and whether L-BFGS converged."""
    if not records.records:
        raise ValueError("cannot train on an empty record set")
    plan = plan_fit(model, records)

    def objective(w: np.ndarray) -> tuple[float, np.ndarray]:
        return nll_and_grad(model, plan, w, l2_lambda)

    weights, history, converged = minimize_lbfgs(objective, model.weights, max_iters, grad_tol)
    return replace(model, weights=weights), history, converged


def predict_labels(model: CrfModel, notes: Iterable[Sequence[str]]) -> list[list[int]]:
    """Viterbi label ids of each note, all notes decoded at once."""
    return viterbi(*model.scores(notes))


# --- serialization ---------------------------------------------------------------

def dump_features(model: CrfModel) -> str:
    """One ``template<TAB>word...`` row per observation; row i is observation i.

    The weights archive holds the weight vector in the CrfModel.split layout.
    """
    names = [name for name, _ in UNIGRAM_TEMPLATES]
    rows = sorted(model.index.obs.items(), key=lambda kv: kv[1])
    return "".join("\t".join((names[ti], *words)) + "\n" for (ti, words), _ in rows)


def save_crf(model: CrfModel, features_path: str, weights_path: str) -> None:
    with open(features_path, "w", encoding="utf-8") as fh:
        fh.write(dump_features(model))
    save_archive([("weights", model.weights)], weights_path)


def load_crf(features_path: str, weights_path: str, scheme: LabelScheme) -> CrfModel:
    templates = {name: (ti, len(offs)) for ti, (name, offs) in enumerate(UNIGRAM_TEMPLATES)}
    index = FeatureIndex()
    for line_no, line in enumerate(read_lines(read_text(features_path)), 1):
        template, *words = line.split("\t")
        if template not in templates:
            raise ValueError(f"features line {line_no}: unknown template {template!r}")
        ti, width = templates[template]
        if len(words) != width:
            raise ValueError(
                f"features line {line_no}: {template} expects {width} word(s), got {len(words)}")
        key = (ti, tuple(words))
        if key in index.obs:
            raise ValueError(f"features line {line_no}: duplicate observation")
        index.obs[key] = len(index.obs)
    entries = load_archive(weights_path)
    if list(entries) != ["weights"]:
        raise ValueError(f"{weights_path}: expected one entry named 'weights', "
                         f"got {sorted(entries)}")
    weights = np.asarray(entries["weights"], dtype=np.float64)
    model = CrfModel(num_labels=len(scheme.labels), index=index, weights=weights)
    model.split(weights)   # raises ValueError for weights sized for another model
    return model
