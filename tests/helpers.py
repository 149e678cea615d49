"""Shared test utilities."""
from __future__ import annotations

import json
import math

import numpy as np
from scipy.special import logsumexp

from handover_ie import tensor as T
from handover_ie.crf import BOS, EOS, TEMPLATE_SLICES
from handover_ie.encoder import parameter_layout
from handover_ie.evaluation import ClassCounts, EvalReport
from handover_ie.pipeline import train_model
from handover_ie.tokenizer import CONTINUATION


def grad_check(f, params, epsilon: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    Coordinates where |analytic| + |numeric| <= 1e-12 are skipped; a
    parameter backward does not reach has a zero analytic gradient. ``f``
    must be deterministic and return a scalar Tensor built from params.
    """
    if not 0.0 < epsilon <= 1e-2:
        raise ValueError(f"epsilon must be in (0, 1e-2], got {epsilon}")
    out = f()
    if not np.all(np.isfinite(out.data)):
        raise ValueError("function value is not finite")
    T.zero_grad(params)
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


def param_count(config) -> int:
    """Exact number of trainable scalars implied by the architecture."""
    return sum(math.prod(shape) for _, shape in parameter_layout(config))


def parse_report_json(text: str) -> tuple[EvalReport, ClassCounts]:
    """Read back what evaluation.emit_report writes in the json format."""
    obj = json.loads(text)
    labels = tuple(obj["labels"])
    counts = ClassCounts(
        labels=labels,
        tp=tuple(obj["counts"][n]["tp"] for n in labels),
        fp=tuple(obj["counts"][n]["fp"] for n in labels),
        fn=tuple(obj["counts"][n]["fn"] for n in labels),
    )
    report = EvalReport(
        evaluated=tuple(obj["evaluated"]),
        per_class={
            n: (d["precision"], d["recall"], d["f1"]) for n, d in obj["per_class"].items()
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


def featurize(model, records):
    """A record set's words and gold labels as the Featurized form that
    crf.nll_and_grad takes."""
    return model.index.transform((r.words, r.labels) for r in records.records)


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
