"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from handover_ie import evaluation, pipeline
from handover_ie import tensor as T
from handover_ie.corpus import (
    RecordSet,
    default_synthetic_scheme,
    dump_scheme,
    evaluated_classes,
    generate_synthetic,
    serialize_records,
)
from handover_ie.crf import CrfModel, nll_and_grad, plan_fit, viterbi
from handover_ie.encoder import EncoderModel, ModelConfig, classify, embed, encode, token_loss
from handover_ie.evaluation import prf_from_counts
from handover_ie.tokenizer import train_bpe, word_frequencies

from helpers import (
    grad_check, param_count, parse_report_json, path_score, posteriors, probed, randomize,
    word_accuracy,
)
from test_crf import brute_force as crf_brute_force, notes_of, random_instance
from test_tokenizer import brute_force_merges, random_corpus

REPO = Path(__file__).resolve().parents[1]


def report(n: int, description: str, t0: float, budget: float) -> None:
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE CRITERION {n}: PASS ({elapsed:.1f}s) — {description}")
    assert elapsed < budget, f"criterion {n} exceeded its {budget}s budget"


def test_criterion_1_metric_oracle():
    t0 = time.time()
    rows = {
        "N.A.": ((2090, 370, 562), (0.8496, 0.7881, 0.8177)),
        "Gender": ((62, 0, 116), (1.0, 0.3483, 0.5167)),
        "Last Name": ((100, 0, 1), (1.0, 0.9901, 0.995)),
        "Age in Years": ((280, 32, 1), (0.8974, 0.9964, 0.9444)),
        "Current Room": ((100, 0, 0), (1.0, 1.0, 1.0)),
    }
    for name, ((tp, fp, fn), expected) in rows.items():
        got = prf_from_counts(tp, fp, fn)
        for g, w in zip(got, expected):
            assert abs(g - w) < 5e-4, (name, got, expected)
    report(1, "published confusion counts reproduce published P/R/F1 within 5e-4",
           t0, budget=1.0)


def test_criterion_2_parameter_counts():
    t0 = time.time()
    base = ModelConfig(num_layers=12, hidden_size=768, num_heads=12, ffn_size=3072,
                       vocab_size=30522, max_positions=512, num_labels=2)
    large = ModelConfig(num_layers=24, hidden_size=1024, num_heads=16, ffn_size=4096,
                        vocab_size=30522, max_positions=512, num_labels=2)
    assert abs(param_count(base) - 110e6) <= 0.05 * 110e6
    assert abs(param_count(large) - 340e6) <= 0.05 * 340e6
    report(2, f"base shape {param_count(base)/1e6:.1f}M and large shape "
              f"{param_count(large)/1e6:.1f}M parameters, both within 5%",
           t0, budget=1.0)


def test_criterion_3_gradient_suites():
    t0 = time.time()
    worst_encoder = 0.0
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        cfg = ModelConfig(num_layers=1 + trial % 2, hidden_size=4, num_heads=2,
                          ffn_size=8, vocab_size=6, max_positions=8, num_labels=3)
        model = EncoderModel(cfg, seed=trial)
        params = model.parameters()
        randomize(params, rng)
        n = int(rng.integers(2, 7))
        ids = rng.integers(0, cfg.vocab_size, n).tolist()
        labels = rng.integers(0, cfg.num_labels, n).tolist()

        def loss_fn():
            return token_loss(classify(encode(embed(ids, model), model), model), labels)

        worst_encoder = max(
            worst_encoder,
            grad_check(probed(loss_fn, params, rng), params, epsilon=1e-5),
        )
    assert worst_encoder < 1e-5

    from handover_ie.corpus import LabelScheme, Record

    worst_crf = 0.0
    eps = 1e-5
    for trial in range(20):
        rng = np.random.default_rng(3000 + trial)
        scheme = LabelScheme(labels=("N.A.", "a", "b"))
        records = []
        for r in range(int(rng.integers(1, 3))):
            length = int(rng.integers(1, 5))
            records.append(Record(
                id=f"r{r}",
                words=tuple(f"w{int(rng.integers(5))}" for _ in range(length)),
                labels=tuple(int(rng.integers(3)) for _ in range(length)),
            ))
        rs = RecordSet(split="train", records=tuple(records))
        lam = float(rng.uniform(0.1, 2))
        model = CrfModel.build(rs, scheme, 1)
        plan = plan_fit(model, rs)
        w = rng.normal(0, 0.5, model.weights.shape)
        _, grad = nll_and_grad(model, plan, w, lam)
        for k in range(w.size):
            wp = w.copy(); wp[k] += eps
            wm = w.copy(); wm[k] -= eps
            numeric = (nll_and_grad(model, plan, wp, lam)[0]
                       - nll_and_grad(model, plan, wm, lam)[0]) / (2 * eps)
            denom = abs(grad[k]) + abs(numeric)
            if denom > 1e-12:
                worst_crf = max(worst_crf, abs(grad[k] - numeric) / denom)
    assert worst_crf < 1e-5
    report(3, f"20 encoder full-model checks (worst {worst_encoder:.1e}) and "
              f"20 CRF nll checks (worst {worst_crf:.1e}), all < 1e-5",
           t0, budget=120.0)


def test_criterion_4_crf_bruteforce_equivalence():
    t0 = time.time()
    for trial in range(110):
        rng = np.random.default_rng(trial)
        unary, starts, trans = random_instance(rng)
        got_node, got_pair, got_log_z = posteriors(unary, starts, trans)
        got_paths = viterbi(unary, starts, trans)
        pair_sum = np.zeros_like(trans)
        for i, note in enumerate(notes_of(unary, starts)):
            log_z, node, pair, best, tie_path = crf_brute_force(note, trans)
            assert abs(got_log_z[i] - log_z) < 1e-8
            assert np.abs(got_node[starts[i]:starts[i + 1]] - node).max() < 1e-8
            pair_sum += pair.sum(axis=0)
            assert abs(path_score(note, trans, got_paths[i]) - best) < 1e-9
            assert tuple(got_paths[i]) == tie_path
        assert np.abs(got_pair - pair_sum).max() < 1e-8
    report(4, "log-partition, marginals, and Viterbi equal exhaustive enumeration "
              "on 110 random calls of 2-4 notes each (T<=5, |Y|<=4)", t0, budget=60.0)


def test_criterion_5_bpe_oracle():
    t0 = time.time()
    sennrich = {"low": 5, "lower": 2, "newest": 6, "widest": 3}
    table = train_bpe(sennrich, 10)
    assert table.merges[0] == ("e", "s")
    assert list(table.merges) == brute_force_merges(sennrich, 10)
    for trial in range(20):
        rng = np.random.default_rng(trial)
        corpus = random_corpus(rng)
        n = int(rng.integers(0, 15))
        assert list(train_bpe(corpus, n).merges) == brute_force_merges(corpus, n)
    report(5, "merge lists equal the brute-force re-count oracle on 20 random "
              "corpora; first benchmark merge is (e, s)", t0, budget=30.0)


def test_criterion_6_overfit_and_baseline_margins():
    t0 = time.time()
    scheme = default_synthetic_scheme()

    train = generate_synthetic(20, scheme, seed=42)
    table = train_bpe(word_frequencies(r.words for r in train.records), 80)
    config = pipeline.TrainConfig(kind="encoder", learning_rate=3e-3, batch_size=4,
                                  epochs=60, seed=0, max_len=64)
    model_config = ModelConfig(num_layers=2, hidden_size=32, num_heads=2, ffn_size=64,
                               vocab_size=len(table.pieces), max_positions=64,
                               num_labels=len(scheme.labels))
    ckpt, _ = pipeline.fine_tune(train, train, scheme, table, config, model_config)
    accuracy = word_accuracy(train, pipeline.predict(ckpt, train))
    assert accuracy >= 0.99

    crf_train = generate_synthetic(200, scheme, seed=10)
    test = RecordSet(split="test", records=generate_synthetic(60, scheme, seed=11).records)
    evaluated = evaluated_classes(crf_train, scheme)
    crf_ckpt, _ = pipeline.train_crf(
        crf_train, test, scheme, pipeline.TrainConfig(kind="crf", l2_lambda=1.0)
    )

    def macro_f1(pred):
        counts = evaluation.confusion_counts(test, pred, scheme)
        return evaluation.build_report(counts, scheme, evaluated).macro_f1

    crf_f1 = macro_f1(pipeline.predict(crf_ckpt, test))
    random_f1 = macro_f1(evaluation.baseline_random(test, seed=0,
                                                    evaluated_ids=evaluated))
    majority = evaluation.majority_label(crf_train, scheme)
    majority_f1 = macro_f1(evaluation.baseline_majority(test, majority))
    assert crf_f1 - random_f1 >= 0.2
    assert crf_f1 - majority_f1 >= 0.2
    report(6, f"tiny encoder overfits to {accuracy:.1%} token accuracy; CRF macro F1 "
              f"{crf_f1:.3f} beats random {random_f1:.3f} and majority {majority_f1:.3f} "
              f"by >= 0.2", t0, budget=300.0)


def test_criterion_7_determinism(tmp_path):
    t0 = time.time()
    scheme = default_synthetic_scheme()
    train = generate_synthetic(10, scheme, seed=30)
    valid = RecordSet(split="validation",
                      records=generate_synthetic(4, scheme, seed=31).records)
    table = train_bpe(word_frequencies(r.words for r in train.records), 40)
    model_config = ModelConfig(num_layers=1, hidden_size=16, num_heads=2, ffn_size=32,
                               vocab_size=len(table.pieces), max_positions=64,
                               num_labels=len(scheme.labels))
    evaluated = evaluated_classes(train, scheme)

    outputs = []
    for run in range(2):
        run_dir = tmp_path / f"run{run}"
        enc_cfg = pipeline.TrainConfig(kind="encoder", learning_rate=3e-3,
                                       batch_size=4, epochs=2, seed=9, max_len=64)
        ckpt, _ = pipeline.fine_tune(train, valid, scheme, table, enc_cfg, model_config)
        ckpt.save(run_dir / "encoder")
        crf_ckpt, _ = pipeline.train_crf(
            train, valid, scheme, pipeline.TrainConfig(kind="crf", seed=9)
        )
        crf_ckpt.save(run_dir / "crf")
        for name, checkpoint in (("encoder", ckpt), ("crf", crf_ckpt)):
            pred = pipeline.predict(checkpoint, valid)
            counts = evaluation.confusion_counts(valid, pred, scheme)
            rep = evaluation.build_report(counts, scheme, evaluated)
            (run_dir / f"report_{name}.json").write_text(
                evaluation.emit_report(rep, counts, "json", scheme), encoding="utf-8")
        outputs.append(run_dir)

    compared = 0
    for path in sorted(outputs[0].rglob("*")):
        if path.is_file():
            twin = outputs[1] / path.relative_to(outputs[0])
            assert twin.is_file(), twin
            assert path.read_bytes() == twin.read_bytes(), path.name
            compared += 1
    assert compared >= 10
    report(7, f"two same-seed runs produced {compared} byte-identical checkpoint "
              f"and report files", t0, budget=120.0)


def test_criterion_8_documented_reproduction_path(tmp_path):
    t0 = time.time()
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    for needle in ("reproduce_handover.py", "import_pretrained.py",
                   "convert_standoff.py", "--pretrained", "NICTA"):
        assert needle in readme, f"README must document {needle}"

    # the full pipeline must execute to an evaluation report; desk-scale
    # stand-ins substitute for the dataset and the externally pretrained
    # weights, which the README documents how to obtain and convert
    scheme = default_synthetic_scheme()
    data = tmp_path / "data"
    data.mkdir()
    for name, n, seed in (("train", 12, 0), ("validation", 4, 1), ("test", 6, 2)):
        rs = RecordSet(split=name, records=generate_synthetic(n, scheme, seed=seed).records)
        (data / f"{name}.tsv").write_text(serialize_records(rs, scheme), encoding="utf-8")
    (data / "labels.txt").write_text(dump_scheme(scheme), encoding="utf-8")
    work = tmp_path / "work"
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "reproduce_handover.py"),
         "--data-dir", str(data), "--workdir", str(work), "--skip-grid",
         "--num-layers", "1", "--hidden-size", "16", "--num-heads", "2",
         "--ffn-size", "32", "--num-merges", "30", "--max-len", "64"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    config = (work / "encoder_checkpoint" / "config.txt").read_text(encoding="utf-8")
    assert "\ndropout=0.1\n" in config
    for method in ("encoder", "crf", "random", "majority"):
        rep, _ = parse_report_json(
            (work / f"report_{method}.json").read_text(encoding="utf-8"))
        assert 0.0 <= rep.macro_f1 <= 1.0
    report(8, "README documents the dataset + pretrained-weights reproduction "
              "path; the full pipeline runs to evaluation reports end to end",
           t0, budget=300.0)
