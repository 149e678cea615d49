"""Shared test utilities."""
from __future__ import annotations

import json
import math
from collections import Counter

import numpy as np
from hypothesis import strategies as st
from scipy.special import logsumexp

from handover_ie import tensor as T
from handover_ie.corpus import WORD_BREAKS
from handover_ie.crf import (
    BOS, EOS, LBFGS_MEMORY, TEMPLATE_SLICES, _dot, _logsumexp, _packed_posteriors,
    _wolfe_line_search, pack,
)
from handover_ie.encoder import parameter_layout
from handover_ie.evaluation import ClassCounts, EvalReport
from handover_ie.pipeline import train_model
from handover_ie.tokenizer import (
    CLS, CONTINUATION, SEP, SPECIALS, MergeTable, TokenizedSequence, _merge_seq, segment_word,
)


def grad_check(f, params, epsilon: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    Coordinates where |analytic| + |numeric| <= 1e-12 are skipped; a
    parameter backward does not reach has a zero analytic gradient. ``f``
    must be deterministic and return a scalar Tensor built from params.
    Only the analytic pass is recorded; the central differences build no
    tape.
    """
    if not 0.0 < epsilon <= 1e-2:
        raise ValueError(f"epsilon must be in (0, 1e-2], got {epsilon}")
    T.zero_grad(params)
    with T.recording():
        out = f()
        if not np.all(np.isfinite(out.data)):
            raise ValueError("function value is not finite")
        # an unrecorded value depends on no parameter
        if out.requires_grad:
            T.backward(out)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    max_rel = 0.0
    for p, ana in zip(params, analytic):
        flat = p.data.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + epsilon
            hi = float(f().data)
            flat[k] = orig - epsilon
            lo = float(f().data)
            flat[k] = orig
            numeric = (hi - lo) / (2.0 * epsilon)
            a = float(ana.reshape(-1)[k])
            denom = abs(a) + abs(numeric)
            if denom > 1e-12:
                max_rel = max(max_rel, abs(a - numeric) / denom)
    return max_rel


def _reference_dropout(y, rate, rng):
    return T.mul(y, T.constant(T.dropout_mask(y.data, rate, rng))) if rate > 0.0 else y


def reference_attention_block(x, layer, num_heads, rate, rng):
    """Primitive-chain reference for tensor.attention_block: one tape node
    per operation."""
    t, h = x.data.shape
    dh = h // num_heads

    def heads(y):
        return T.transpose(T.reshape(y, (t, num_heads, dh)), (1, 0, 2))

    q = heads(T.add(T.matmul(x, layer.wq), layer.bq))
    k = heads(T.add(T.matmul(x, layer.wk), layer.bk))
    v = heads(T.add(T.matmul(x, layer.wv), layer.bv))
    scores = T.scale(T.matmul(q, T.transpose(k, (0, 2, 1))), 1.0 / math.sqrt(dh))
    attn = T.softmax_rows(scores)
    ctx = T.reshape(T.transpose(T.matmul(attn, v), (1, 0, 2)), (t, h))
    out = _reference_dropout(T.add(T.matmul(ctx, layer.wo), layer.bo), rate, rng)
    return T.layer_norm(T.add(x, out), layer.ln1_g, layer.ln1_b)


def reference_ffn_block(x, layer, rate, rng):
    """Primitive-chain reference for tensor.ffn_block."""
    inner = T.gelu(T.add(T.matmul(x, layer.w1), layer.b1))
    ffn = _reference_dropout(T.add(T.matmul(inner, layer.w2), layer.b2), rate, rng)
    return T.layer_norm(T.add(x, ffn), layer.ln2_g, layer.ln2_b)


def reference_encode(x, model, rng=None):
    """Primitive-chain reference for encoder.encode."""
    cfg = model.config
    drop = 0.0 if rng is None else cfg.dropout
    for layer in model.layers:
        x = reference_attention_block(x, layer, cfg.num_heads, drop, rng)
        x = reference_ffn_block(x, layer, drop, rng)
    return x


def reference_softmax(x):
    """tensor._softmax through numpy's reduction wrappers."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def reference_layer_norm(x, gain, bias):
    """tensor._layer_norm through np.mean and np.var."""
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + T.LAYER_NORM_EPS)
    xhat = (x - mean) * inv
    return xhat * gain + bias, xhat, inv


def reference_layer_norm_vjp(g, gain, xhat, inv):
    """tensor._layer_norm_vjp through np.mean."""
    gx = g * gain
    m1 = gx.mean(axis=-1, keepdims=True)
    m2 = (gx * xhat).mean(axis=-1, keepdims=True)
    return inv * (gx - m1 - xhat * m2)


class ReferenceAdam:
    """Per-parameter reference for pipeline.Adam: one moment pair per
    parameter, a None gradient read as zero, and each update rebinding
    p.data to a new array."""

    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr: float, weight_decay: float):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - self.b1 ** self.t
        c2 = 1.0 - self.b2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = 0.0 if p.grad is None else p.grad
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            update = (m / c1) / (np.sqrt(v / c2) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data = p.data - self.lr * update


def param_count(config) -> int:
    """Exact number of trainable scalars implied by the architecture."""
    return sum(math.prod(shape) for _, shape in parameter_layout(config))


def parse_report_json(text: str) -> tuple[EvalReport, ClassCounts]:
    """Read back what evaluation.emit_report writes in the json format."""
    obj = json.loads(text)
    labels = tuple(obj["labels"])
    counts = ClassCounts(
        tp=tuple(obj["counts"][n]["tp"] for n in labels),
        fp=tuple(obj["counts"][n]["fp"] for n in labels),
        fn=tuple(obj["counts"][n]["fn"] for n in labels),
    )
    # the json keys are sorted, so the scheme-id order of the classes is "evaluated"
    report = EvalReport(
        per_class={
            n: (obj["per_class"][n]["precision"], obj["per_class"][n]["recall"],
                obj["per_class"][n]["f1"])
            for n in obj["evaluated"]
        },
        macro_precision=obj["macro_precision"],
        macro_recall=obj["macro_recall"],
        macro_f1=obj["macro_f1"],
        categories={
            c: (d["tp"], d["fp"], d["fn"], d["precision"], d["recall"], d["f1"])
            for c, d in obj["categories"].items()
        },
    )
    return report, counts


def probed(loss_fn, params, rng):
    """Add a random linear term over every parameter to a scalar loss.

    Central differences cannot resolve coordinates whose true gradient is
    below ~1e-6 (the quotient noise floor at 64-bit); the probe keeps every
    coordinate's gradient O(0.1) while the backprop path under test is
    unchanged.
    """
    probes = [
        T.constant(rng.uniform(0.05, 0.2, p.data.shape) * rng.choice([-1.0, 1.0], p.data.shape))
        for p in params
    ]

    def f():
        total = loss_fn()
        for p, pr in zip(params, probes):
            n = p.data.size
            dot = T.matmul(T.reshape(p, (1, n)), T.reshape(pr, (n, 1)))
            total = T.add(total, T.reshape(dot, ()))
        return total

    return f


def randomize(params, rng, scale=0.5):
    for p in params:
        p.data = rng.normal(0.0, scale, p.data.shape)


def word_accuracy(gold, pred) -> float:
    total = correct = 0
    for g, p in zip(gold.records, pred.records):
        assert g.words == p.words
        for a, b in zip(g.labels, p.labels):
            total += 1
            correct += a == b
    return correct / total


def _contains_pair(seq, pair) -> bool:
    return any(seq[i] == pair[0] and seq[i + 1] == pair[1] for i in range(len(seq) - 1))


def _best_pair(counts):
    """Highest-count pair; ties break toward the lexicographically least."""
    best = None
    best_count = 0
    for pair, count in counts.items():
        if count > best_count or (count == best_count and best is not None and pair < best):
            best, best_count = pair, count
    return best


def reference_train_bpe(word_frequency, num_merges, lowercase=False) -> MergeTable:
    """Scan reference for tokenizer.train_bpe: each merge takes the best
    pair by a scan of every pair count and re-counts the words it finds by
    a scan of every word."""
    words = {}
    for word, count in word_frequency.items():
        key = tuple(word.lower() if lowercase else word)
        words[key] = words.get(key, 0) + count
    chars = sorted({ch for seq in words for ch in seq})
    counts = Counter()
    for seq, freq in words.items():
        for pair in zip(seq, seq[1:]):
            counts[pair] += freq
    merges = []
    for _ in range(num_merges):
        pair = _best_pair(counts)
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
    pieces = list(SPECIALS)
    for sym in chars + [a + b for a, b in merges]:
        for form in (sym, CONTINUATION + sym):
            if form not in pieces:
                pieces.append(form)
    return MergeTable(merges=tuple(merges), pieces=tuple(pieces), lowercase=lowercase)


def reference_segment_word(word, table) -> list[str]:
    """Merge-list walk reference for tokenizer.segment_word: every merge in
    list order, applied wherever its pair is adjacent."""
    if table.lowercase:
        word = word.lower()
    seq = tuple(word)
    for pair in table.merges:
        if len(seq) == 1:
            break
        if _contains_pair(seq, pair):
            seq = _merge_seq(seq, pair)
    return [sym if j == 0 else CONTINUATION + sym for j, sym in enumerate(seq)]


def reference_plan_windows(word_of_piece, capacity) -> list[tuple[int, int]]:
    """Backward-walk reference for tokenizer._plan_windows: each edge walks
    back piece by piece to a word start."""
    n = len(word_of_piece)
    if n <= capacity:
        return [(0, n)]
    overlap = capacity // 4
    windows = []
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


def reference_encode_words(words, table, max_len) -> list[TokenizedSequence]:
    """Per-piece reference for tokenizer.encode: each window is built one
    piece at a time, a word's first subtoken found where its first piece is."""
    surfaces, word_of_piece, first_flat = [], [], []
    for w, word in enumerate(words):
        first_flat.append(len(surfaces))
        pcs = segment_word(word, table)
        surfaces.extend(pcs)
        word_of_piece.extend([w] * len(pcs))
    out = []
    for s, e in reference_plan_windows(word_of_piece, max_len - 2) if surfaces else [(0, 0)]:
        ids, pieces, word_idx, firsts = [table.cls_id], [CLS], [None], {}
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
        span = (word_of_piece[s], word_of_piece[e - 1] + 1) if e > s else (0, 0)
        out.append(TokenizedSequence(token_ids=tuple(ids), pieces=tuple(pieces),
                                     word_index_of=tuple(word_idx), first_subtoken_of=firsts,
                                     word_span=span, piece_span=(s, e)))
    return out


def decode(seqs) -> list[str]:
    """Reassemble word surfaces from encoder windows (overlap pieces
    deduplicated): the inverse of tokenizer.encode at the word level."""
    by_word: dict[int, dict[int, str]] = {}
    for seq in seqs:
        flat = seq.piece_span[0]
        for piece, w in zip(seq.pieces, seq.word_index_of):
            if w is not None:
                by_word.setdefault(w, {}).setdefault(flat, piece)
                flat += 1
    return ["".join(by_word[w][k].removeprefix(CONTINUATION) for k in sorted(by_word[w]))
            for w in sorted(by_word)]


def extract_features(words) -> list[list[tuple[int, tuple[str, ...]]]]:
    """Per position: (template index, surface) firings, in template order;
    the nested-list reference for FeatureIndex.fit and transform."""
    padded = (BOS, *words, EOS)
    return [[(ti, padded[p + a:p + b]) for ti, a, b in TEMPLATE_SLICES]
            for p in range(len(words))]


def posteriors(unary, starts, transition, recursion=_packed_posteriors):
    """crf._packed_posteriors, or another recursion over the packed layout,
    in flat order: node marginals [positions, |Y|], pairwise marginals
    summed over every note and step [|Y|, |Y|], and each note's log Z
    [notes], in input-note order."""
    pk = pack(starts)
    packed_node, pair, log_z = recursion(unary[pk.perm], pk, transition)
    node = np.empty_like(unary)
    node[pk.perm] = packed_node
    by_note = np.empty_like(log_z)
    by_note[pk.order] = log_z
    return node, pair, by_note


def path_score(unary, transition, path) -> float:
    """Score of one label path: its unary entries plus its transitions."""
    score = float(unary[np.arange(len(path)), list(path)].sum())
    for a, b in zip(path, path[1:]):
        score += float(transition[a, b])
    return score


def loop_viterbi(unary, transition) -> list[int]:
    """Per-note reference for crf.viterbi: one step and one label at a time;
    ties resolve to the lower label id."""
    t_len, y = unary.shape
    delta = list(unary[0])
    back = []
    for t in range(1, t_len):
        cand = [[delta[i] + transition[i, j] for i in range(y)] for j in range(y)]
        back.append([max(range(y), key=lambda i: (c[i], -i)) for c in cand])
        delta = [unary[t, j] + cand[j][back[-1][j]] for j in range(y)]
    path = [max(range(y), key=lambda j: (delta[j], -j))]
    for ptr in reversed(back):
        path.append(ptr[path[-1]])
    return path[::-1]


def loop_nll_and_grad(model, records, weights, l2_lambda):
    """Per-position loop reference for crf.nll_and_grad: its own
    forward-backward, one position and one transition at a time."""
    y = model.num_labels
    n_unary = model.index.num_obs * y
    unary_w = weights[:n_unary].reshape(model.index.num_obs, y)
    trans_w = weights[n_unary:].reshape(y, y)
    grad_unary = np.zeros_like(unary_w)
    grad_trans = np.zeros_like(trans_w)
    loss = 0.0
    for rec in records.records:
        gold = rec.labels
        active_per_pos = [[model.index.obs[key] for key in firings if key in model.index.obs]
                          for firings in extract_features(rec.words)]
        t_len = len(gold)
        unary = np.zeros((t_len, y))
        for pos, active in enumerate(active_per_pos):
            if active:
                unary[pos] = unary_w[active].sum(axis=0)
        alpha = np.zeros((t_len, y))
        beta = np.zeros((t_len, y))
        alpha[0] = unary[0]
        for t in range(1, t_len):
            alpha[t] = unary[t] + logsumexp(alpha[t - 1][:, None] + trans_w, axis=0)
        for t in range(t_len - 2, -1, -1):
            beta[t] = logsumexp(trans_w + unary[t + 1] + beta[t + 1], axis=1)
        log_z = float(logsumexp(alpha[-1]))
        node = np.exp(alpha + beta - log_z)
        loss += log_z - path_score(unary, trans_w, gold)
        for pos, active in enumerate(active_per_pos):
            if active:
                grad_unary[active] += node[pos]
                grad_unary[active, gold[pos]] -= 1.0
        for t in range(t_len - 1):
            grad_trans += np.exp(alpha[t][:, None] + trans_w + unary[t + 1] + beta[t + 1] - log_z)
            grad_trans[gold[t], gold[t + 1]] -= 1.0
    loss += 0.5 * l2_lambda * float(weights @ weights)
    grad = np.concatenate([grad_unary.reshape(-1), grad_trans.reshape(-1)]) + l2_lambda * weights
    return loss, grad


def reference_posteriors(unary, starts, transition):
    """Log-space row-layout reference for posteriors, and the posteriors
    the scatter objective calls: each step's blocks are [k, |Y|, |Y|], with
    the labels innermost; node marginals and log Z are scattered back from
    the packed layout to flat position and input-note order. crf's
    wide-range path, crf._log_posteriors, runs this recursion on rows
    already in packed order, so through helpers.posteriors it gives the
    same bits."""
    pk = pack(starts)
    u = unary[pk.perm]
    alpha = u.copy()
    for prev, lo, hi in pk.steps:
        alpha[lo:hi] += _logsumexp(alpha[prev:prev + hi - lo, :, None] + transition, axis=1)
    log_z = _logsumexp(alpha[pk.last], axis=1)
    beta = np.zeros_like(u)
    pair = np.zeros_like(transition)
    for prev, lo, hi in reversed(pk.steps):
        k = hi - lo
        beta[prev:prev + k] = _logsumexp(
            transition + u[lo:hi, None, :] + beta[lo:hi, None, :], axis=2)
        pair += np.exp(alpha[prev:prev + k, :, None] + transition
                       + (u[lo:hi] + beta[lo:hi])[:, None, :]
                       - log_z[:k, None, None]).sum(axis=0)
    node = np.empty_like(unary)
    node[pk.perm] = np.exp(alpha + beta - log_z[pk.note][:, None])
    by_note = np.empty_like(log_z)
    by_note[pk.order] = log_z
    return node, pair, by_note


def reference_nll_and_grad(model, records, weights, l2_lambda):
    """Log-space reference for crf.nll_and_grad: the scatter objective,
    which featurizes on every call into flat (observation, position)
    firings, scores and scatters the unary gradient with np.add.at, and
    runs reference_posteriors in flat order."""
    y = model.num_labels
    ids, pos, gold, starts = [], [], [], [0]
    for rec in records.records:
        for p, firings in enumerate(extract_features(rec.words)):
            active = [model.index.obs[key] for key in firings if key in model.index.obs]
            ids += active
            pos += [starts[-1] + p] * len(active)
        starts.append(starts[-1] + len(rec.words))
        gold += rec.labels
    ids, pos, gold, starts = (np.array(a, dtype=np.int64) for a in (ids, pos, gold, starts))
    n_unary = model.index.num_obs * y
    unary_w = weights[:n_unary].reshape(model.index.num_obs, y)
    trans_w = weights[n_unary:].reshape(y, y)
    unary = np.zeros((int(starts[-1]), y))
    np.add.at(unary, pos, unary_w[ids])
    positions = np.arange(gold.size)
    inner = np.ones(gold.size, dtype=bool)
    inner[starts[1:] - 1] = False
    prev, cur = gold[inner], gold[positions[inner] + 1]

    node, pair_sum, log_z = reference_posteriors(unary, starts, trans_w)
    loss = float(log_z.sum()) - float(unary[positions, gold].sum() + trans_w[prev, cur].sum())

    grad = np.zeros_like(weights)
    grad_unary = grad[:n_unary].reshape(model.index.num_obs, y)
    grad_trans = grad[n_unary:].reshape(y, y)
    node[positions, gold] -= 1.0
    np.add.at(grad_unary, ids, node[pos])
    grad_trans += pair_sum - np.bincount(prev * y + cur, minlength=y * y).reshape(y, y)

    loss += 0.5 * l2_lambda * float(weights @ weights)
    grad += l2_lambda * weights
    return loss, grad


def reference_minimize_lbfgs(fun, x0, max_iters, grad_tol):
    """Byte-for-byte reference for crf.minimize_lbfgs: the two-loop
    recursion that recomputes each pair's 1/(y.s) on every iteration and
    the last pair's s.y/(y.y) scale, and allocates each vector update.
    Its dot products are crf._dot's, whose order no thread count moves."""
    x = x0.astype(np.float64).copy()
    f, g = fun(x)
    if not np.isfinite(f):
        raise T.TrainingDivergence(f"non-finite initial loss {f}")
    history = [f]
    s_hist, y_hist = [], []
    for _ in range(max_iters):
        gnorm = float(np.abs(g).max()) if g.size else 0.0
        if gnorm <= grad_tol:
            return x, history, True
        q = g.copy()
        alphas = []
        for s, yv in zip(reversed(s_hist), reversed(y_hist)):
            rho = 1.0 / _dot(yv, s)
            a = rho * _dot(s, q)
            alphas.append((a, rho))
            q -= a * yv
        if y_hist:
            yv, s = y_hist[-1], s_hist[-1]
            q *= _dot(s, yv) / _dot(yv, yv)
        else:
            q *= 1.0 / max(gnorm, 1.0)
        for (a, rho), s, yv in zip(reversed(alphas), s_hist, y_hist):
            b = rho * _dot(yv, q)
            q += (a - b) * s
        direction = -q
        result = _wolfe_line_search(fun, x, f, g, direction)
        if result is None:
            direction = -g
            result = _wolfe_line_search(fun, x, f, g, direction)
            if result is None:
                return x, history, False
            s_hist.clear()
            y_hist.clear()
        step, f_new, g_new = result
        s = step * direction
        yv = g_new - g
        if _dot(s, yv) > 1e-10:
            s_hist.append(s)
            y_hist.append(yv)
            if len(s_hist) > LBFGS_MEMORY:
                s_hist.pop(0)
                y_hist.pop(0)
        x = x + s
        f, g = f_new, g_new
        history.append(f)
    return x, history, float(np.abs(g).max()) <= grad_tol


def loop_grid_search(grid, train, valid, scheme, model_config, table):
    """Per-config reference for pipeline.grid_search: one train_model run
    per config, no run shared between configs that differ only in epochs."""
    rows = []
    for i, config in enumerate(grid):
        _, metrics = train_model(train, valid, scheme, config, model_config, table)
        best = max((m["val_macro_f1"] or 0.0) for m in metrics)
        rows.append({"config": config, "val_macro_f1": best, "order": i})
    rows.sort(key=lambda r: (-r["val_macro_f1"], r["config"].learning_rate,
                             r["config"].epochs, r["order"]))
    leaderboard = [{"config": r["config"], "val_macro_f1": r["val_macro_f1"]} for r in rows]
    return rows[0]["config"], leaderboard


# lists of words under the one word rule; surrogates cannot be written as UTF-8
WORD_LISTS = st.lists(
    st.text(st.characters(codec="utf-8").filter(lambda c: not WORD_BREAKS.match(c)),
            min_size=1, max_size=8),
    min_size=1, max_size=8)


def as_saved(raw: bytes) -> bytes:
    """What a loadable file re-saves to: line ends as written by the line
    rule (CR and CRLF read as LF), and a final newline after the last line."""
    raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return raw + b"\n" if raw and not raw.endswith(b"\n") else raw


INSERTED = ("\x85", "\u2028", " ", "\t", "\r", "\n", "\x00")


def corruptions(raw: bytes, at: int) -> list[bytes]:
    """raw cut at offset at, with each bit of the byte at at flipped, and
    with each of INSERTED inserted at at."""
    out = [raw[:at]]
    if at < len(raw):
        out += [raw[:at] + bytes([raw[at] ^ 1 << bit]) + raw[at + 1:] for bit in range(8)]
    return out + [raw[:at] + ch.encode("utf-8") + raw[at:] for ch in INSERTED]


def draw_offset(data, raw: bytes) -> int:
    """An offset into raw for corruptions; line starts, where a lenient
    reader would slip, are drawn often."""
    bounds = [0, len(raw), *(i + 1 for i, b in enumerate(raw) if b == 0x0A)]
    return data.draw(st.one_of(st.sampled_from(bounds), st.integers(0, len(raw))))
