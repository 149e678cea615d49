import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from handover_ie import crf, encoder, evaluation, pipeline
from handover_ie import tensor as T
from handover_ie.cli import build_parser, main as cli_main
from handover_ie.corpus import (
    LabelingError,
    LabelScheme,
    RecordSet,
    default_synthetic_scheme,
    dump_scheme,
    generate_synthetic,
    serialize_records,
)
from handover_ie.encoder import CompatibilityError, EncoderModel, ModelConfig
from handover_ie.tokenizer import IGNORE_INDEX, TokenizedSequence, train_bpe, word_frequencies

import helpers
from helpers import (
    ReferenceAdam,
    corruptions,
    draw_offset,
    loop_grid_search,
    param_count,
    parse_report_json,
)

REPO = Path(__file__).resolve().parents[1]
METHODS = ("encoder", "crf", "random", "majority")
EXPERIMENT_FILES = {"encoder_checkpoint", "crf_checkpoint", "leaderboard.json"} | {
    f"report_{m}.{ext}" for m in METHODS for ext in ("json", "txt")}


@pytest.fixture(scope="module")
def tiny_setup():
    scheme = default_synthetic_scheme()
    train = generate_synthetic(10, scheme, seed=30)
    valid = RecordSet(split="validation",
                      records=generate_synthetic(4, scheme, seed=31).records)
    table = train_bpe(word_frequencies(r.words for r in train.records), 40)
    model_config = ModelConfig(num_layers=1, hidden_size=16, num_heads=2, ffn_size=32,
                               vocab_size=len(table.pieces), max_positions=64,
                               num_labels=len(scheme.labels))
    return scheme, train, valid, table, model_config


def tiny_train_config(**overrides):
    base = dict(kind="encoder", learning_rate=3e-3, batch_size=4, epochs=3,
                seed=1, max_len=64)
    base.update(overrides)
    return pipeline.TrainConfig(**base)


def test_train_config_validation():
    with pytest.raises(ValueError):
        pipeline.TrainConfig(kind="svm")
    with pytest.raises(ValueError):
        pipeline.TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        pipeline.TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        pipeline.TrainConfig(learning_rate=-1e-3)


@pytest.mark.parametrize("key, value", [("l2_lambda", -0.5), ("max_iters", -3),
                                        ("grad_tol", -1.0), ("l2_lambda", float("nan")),
                                        ("grad_tol", float("nan")), ("l2_lambda", float("inf")),
                                        ("grad_tol", float("inf"))])
def test_train_config_rejects_negative_crf_setting(key, value):
    with pytest.raises(ValueError, match=f"{key} must be >= 0"):
        pipeline.TrainConfig(kind="crf", **{key: value})


@pytest.mark.parametrize("key, value", [("learning_rate", float("nan")),
                                        ("weight_decay", -0.5),
                                        ("weight_decay", float("nan")),
                                        ("learning_rate", float("inf")),
                                        ("weight_decay", float("inf"))],
                         ids=["nan-learning-rate", "negative-weight-decay",
                              "nan-weight-decay", "inf-learning-rate", "inf-weight-decay"])
def test_train_config_rejects_bad_encoder_setting(key, value):
    with pytest.raises(ValueError, match=f"{key} must be >= 0"):
        pipeline.TrainConfig(**{key: value})


BELOW_LEAST = [("max_len", 2, 3), ("max_len", 0, 3), ("num_merges", -1, 0),
               ("feature_cutoff", 0, 1), ("seed", -1, 0)]


@pytest.mark.parametrize("key, value, least", BELOW_LEAST)
def test_train_config_rejects_setting_below_its_least_value(key, value, least):
    with pytest.raises(ValueError, match=f"^{key} must be >= {least}, got {value}$"):
        pipeline.TrainConfig(**{key: value})


def test_config_text_round_trip():
    train_config = pipeline.TrainConfig(kind="crf", learning_rate=2e-5, lowercase=True,
                                        pretrained="w.tarch", grad_tol=1e-7)
    model_config = ModelConfig(num_layers=2, hidden_size=8, num_heads=4, ffn_size=16,
                               vocab_size=31, max_positions=12, num_labels=5,
                               position_mode="sinusoidal", dropout=0.1)
    text = pipeline.dump_config(train_config, model_config)
    train_kw, model_kw = pipeline.parse_config_text(text)
    assert pipeline.TrainConfig(**train_kw) == train_config
    assert ModelConfig(**model_kw) == model_config
    assert "lowercase=True\n" in text
    with pytest.raises(ValueError):
        pipeline.parse_config_text("nonsense=1\n")


@pytest.mark.parametrize("text, key", [("seed=1\nseed=2\n", "seed"),
                                       ("num_layers=1\n# again\nnum_layers = 2\n", "num_layers")],
                         ids=["training-key", "model-key"])
def test_config_text_rejects_a_repeated_key(text, key):
    line_no = len(text.splitlines())
    with pytest.raises(ValueError, match=f"config line {line_no}: duplicate key '{key}'"):
        pipeline.parse_config_text(text)


def read_configs(text: str) -> tuple:
    """The configs a checkpoint's config.txt gives, read as Checkpoint.load
    reads them."""
    train_kw, model_kw = pipeline.parse_config_text(text)
    train_config = pipeline.TrainConfig(**train_kw)
    if train_config.kind == "crf":
        return (train_config,)
    return train_config, pipeline.build_model_config(model_kw)


CONFIGS = st.builds(
    pipeline.TrainConfig, kind=st.sampled_from(pipeline.MODEL_KINDS),
    learning_rate=st.floats(0.0, 1.0), batch_size=st.integers(1, 64), seed=st.integers(0, 2**32),
    pretrained=st.text("ab./_-", max_size=6), lowercase=st.booleans(),
    grad_tol=st.floats(0.0, 1e-3))
MODEL_CONFIGS = st.builds(
    ModelConfig, num_layers=st.integers(1, 3), hidden_size=st.just(8),
    num_heads=st.sampled_from([1, 2, 4]), ffn_size=st.integers(8, 32),
    vocab_size=st.integers(1, 500), max_positions=st.integers(1, 512),
    num_labels=st.integers(2, 9), position_mode=st.sampled_from(encoder.POSITION_MODES),
    dropout=st.floats(0.0, 0.9))


@given(CONFIGS, MODEL_CONFIGS, st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_corrupted_config_file_is_rejected_or_reaches_a_fixed_point(train_config, model_config,
                                                                     data):
    # numbers may be spelled many ways, so a corrupted file need not re-save
    # to itself; the configs it gives must
    configs = (train_config,) if train_config.kind == "crf" else (train_config, model_config)
    raw = pipeline.dump_config(*configs).encode("utf-8")
    for corrupted in corruptions(raw, draw_offset(data, raw)):
        try:
            value = read_configs(corrupted.decode("utf-8"))
        except ValueError:
            continue
        assert read_configs(pipeline.dump_config(*value)) == value


def test_config_file_parsing_and_env_seed(tmp_path, monkeypatch):
    path = tmp_path / "c.cfg"
    path.write_text(
        "# comment\nkind=encoder\nlearning_rate=0.001\nepochs=2\nseed=5\n"
        "num_layers=1\nhidden_size=16\nnum_heads=2\nffn_size=32\n"
        "vocab_size=10\nmax_positions=16\nnum_labels=3\n",
        encoding="utf-8",
    )
    config, model_kw = pipeline.load_train_config(str(path))
    assert config.learning_rate == 0.001 and config.seed == 5
    assert model_kw["hidden_size"] == 16
    monkeypatch.setenv(pipeline.SEED_ENV_VAR, "77")
    config, _ = pipeline.load_train_config(str(path))
    assert config.seed == 77
    bad = tmp_path / "bad.cfg"
    bad.write_text("unknown_key=3\n", encoding="utf-8")
    with pytest.raises(ValueError):
        pipeline.load_train_config(str(bad))


def test_zero_learning_rate_is_a_null_update(tiny_setup):
    scheme, train, valid, table, model_config = tiny_setup
    config = tiny_train_config(learning_rate=0.0, epochs=1)
    from handover_ie.encoder import EncoderModel
    reference = EncoderModel(model_config, seed=config.seed)
    ckpt, _ = pipeline.fine_tune(train, valid, scheme, table, config, model_config)
    for fresh, trained in zip(reference.parameters(), ckpt.model.parameters()):
        assert np.array_equal(fresh.data, trained.data), fresh.name


def test_fine_tune_leaves_no_gradient_buffers(tiny_setup):
    scheme, train, valid, table, model_config = tiny_setup
    ckpt, _ = pipeline.fine_tune(train, valid, scheme, table, tiny_train_config(epochs=1),
                                 model_config)
    assert [p.name for p in ckpt.model.parameters() if p.grad is not None] == []


def test_adam_reads_a_missing_gradient_as_zero():
    # gradients are written through the bound views, as backward writes them
    rng = np.random.default_rng(0)
    start = rng.normal(0, 1, (3, 2))
    reached, unreached = T.Parameter(start.copy(), "a"), T.Parameter(start.copy(), "b")
    opt = pipeline.Adam([reached, unreached], lr=0.1, weight_decay=0.01)
    first = rng.normal(0, 1, (3, 2))
    for step in range(3):
        opt.zero_grad()
        if step == 0:
            reached.grad[...] = first
            unreached.grad[...] = first
        else:
            # backward reaches only one of the two
            reached.grad[...] = 0.0
        opt.step()
    assert reached.data.tobytes() == unreached.data.tobytes()
    # the first step moves every element by about lr; ignoring the gradients
    # would leave only weight decay, which moves each by about lr * 0.01 * |p|
    assert np.abs(reached.data - start).min() > 0.05


def test_adam_packs_parameters_into_one_store():
    rng = np.random.default_rng(1)
    # a strided array, a vector and a scalar; packing copies them and leaves them be
    arrays = [rng.normal(0, 1, (4, 3)).T, rng.normal(0, 1, 5), np.asarray(2.5)]
    params = [T.Parameter(a, f"p{i}") for i, a in enumerate(arrays)]
    opt = pipeline.Adam(params, lr=0.1, weight_decay=0.0)
    assert opt.data.size == opt.grad.size == 12 + 5 + 1
    for p, a in zip(params, arrays):
        assert np.array_equal(p.data, a) and p.data.flags.c_contiguous
        assert p.data.base is opt.data and p.grad.base is opt.grad
        assert not p.grad.any()
    params[0].grad[...] = 1.0
    opt.step()
    assert not np.array_equal(params[0].data, arrays[0])
    assert np.array_equal(params[1].data, arrays[1])


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_flat_adam_matches_the_per_parameter_adam(weight_decay):
    """200 steps, bit for bit. The store is two update blocks, the second
    one partial, and the edge between them falls inside the 200x200 weight;
    the last parameter's gradient stays None for the reference and zero in
    the store."""
    rng = np.random.default_rng(2)
    shapes = [(7,), (200, 200), (3, 5), (2, 4)]
    starts = [rng.normal(0, 1, shape) for shape in shapes]
    flat = [T.Parameter(a.copy(), f"p{i}") for i, a in enumerate(starts)]
    loop = [T.Parameter(a.copy(), f"p{i}") for i, a in enumerate(starts)]
    opt = pipeline.Adam(flat, lr=0.01, weight_decay=weight_decay)
    ref = ReferenceAdam(loop, lr=0.01, weight_decay=weight_decay)
    assert 7 < opt.BLOCK < 7 + 200 * 200 < 2 * opt.BLOCK
    for _ in range(200):
        opt.zero_grad()
        for p, q in zip(flat[:-1], loop[:-1]):
            q.grad = rng.normal(0, 1, q.data.shape)
            p.grad[...] = q.grad
        opt.step()
        ref.step()
    for p, q in zip(flat, loop):
        assert p.data.tobytes() == q.data.tobytes(), p.name
    # weight decay alone moves the parameter backward never reached
    assert np.array_equal(flat[-1].data, starts[-1]) == (weight_decay == 0.0)


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_flat_adam_keeps_float32_parameters(weight_decay):
    """50 steps over float32 parameters, one of them spanning two update
    blocks: the store keeps their dtype and the result is bit-equal to the
    per-parameter Adam."""
    rng = np.random.default_rng(3)
    shapes = [(200, 200), (9,), (4, 6)]
    starts = [rng.normal(0, 1, shape).astype(np.float32) for shape in shapes]
    flat = [T.Parameter(a.copy(), f"p{i}") for i, a in enumerate(starts)]
    loop = [T.Parameter(a.copy(), f"p{i}") for i, a in enumerate(starts)]
    opt = pipeline.Adam(flat, lr=0.01, weight_decay=weight_decay)
    ref = ReferenceAdam(loop, lr=0.01, weight_decay=weight_decay)
    for _ in range(50):
        opt.zero_grad()
        for p, q in zip(flat, loop):
            q.grad = rng.normal(0, 1, q.data.shape).astype(np.float32)
            p.grad[...] = q.grad
        opt.step()
        ref.step()
    for p, q in zip(flat, loop):
        assert p.data.dtype == q.data.dtype == np.float32, p.name
        assert p.data.tobytes() == q.data.tobytes(), p.name


def test_adam_rejects_parameters_of_mixed_dtypes():
    params = [T.Parameter(np.zeros(3), "a"), T.Parameter(np.zeros(2, np.float32), "b")]
    with pytest.raises(ValueError, match="mixed dtypes: float32, float64"):
        pipeline.Adam(params, lr=0.01, weight_decay=0.0)


def test_checkpoint_kind_is_its_config_kind():
    # the saved config's kind decides how the checkpoint loads back
    with pytest.raises(ValueError, match="a crf checkpoint got a config of kind 'encoder'"):
        pipeline.Checkpoint(kind="crf", scheme=default_synthetic_scheme(),
                            train_config=pipeline.TrainConfig(kind="encoder"))


def test_same_seed_gives_byte_identical_checkpoints(tiny_setup, tmp_path):
    scheme, train, valid, table, model_config = tiny_setup
    dirs = []
    for run in range(2):
        config = tiny_train_config(epochs=2, seed=9)
        ckpt, metrics = pipeline.fine_tune(train, valid, scheme, table, config, model_config)
        out = tmp_path / f"run{run}"
        ckpt.save(out)
        pred = pipeline.predict(ckpt, valid)
        counts = evaluation.confusion_counts(valid, pred, scheme)
        report = evaluation.build_report(
            counts, scheme, set(range(len(scheme.labels))))
        (out / "report.json").write_text(
            evaluation.emit_report(report, counts, "json", scheme), encoding="utf-8")
        dirs.append(out)
    files0 = sorted(p.name for p in dirs[0].iterdir())
    files1 = sorted(p.name for p in dirs[1].iterdir())
    assert files0 == files1
    for name in files0:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name


def test_checkpoint_round_trip_preserves_predictions(tiny_setup, tmp_path):
    scheme, train, valid, table, model_config = tiny_setup
    config = tiny_train_config(epochs=2)
    ckpt, _ = pipeline.fine_tune(train, valid, scheme, table, config, model_config)
    before = pipeline.predict(ckpt, valid)
    ckpt.save(tmp_path / "ck")
    loaded = pipeline.Checkpoint.load(tmp_path / "ck")
    after = pipeline.predict(loaded, valid)
    assert before == after


def test_encoder_must_match_table_and_scheme(tiny_setup, tmp_path):
    scheme, train, valid, table, model_config = tiny_setup
    config = tiny_train_config(epochs=1)
    ckpt, _ = pipeline.fine_tune(train, valid, scheme, table, config, model_config)
    for field in ("vocab_size", "num_labels"):
        bad = replace(model_config, **{field: getattr(model_config, field) + 1})
        with pytest.raises(CompatibilityError, match=field):
            pipeline.fine_tune(train, valid, scheme, table, config, bad)
        replace(ckpt, model_config=bad).save(tmp_path / field)
        with pytest.raises(CompatibilityError, match=field):
            pipeline.Checkpoint.load(tmp_path / field)


def test_loading_draws_no_initialization(tiny_setup, tmp_path, monkeypatch):
    scheme, train, valid, table, model_config = tiny_setup
    config = tiny_train_config(epochs=1)
    pipeline.Checkpoint(kind="encoder", scheme=scheme, train_config=config,
                        model_config=model_config, model=EncoderModel(model_config, seed=3),
                        table=table).save(tmp_path / "ck")
    archive = tmp_path / "ck" / "model.tarch"
    entries = T.load_archive(str(archive))

    def no_draw(*args, **kwargs):
        raise AssertionError("a load path drew a random initialization")

    monkeypatch.setattr(encoder, "truncated_normal", no_draw)
    # a zero learning rate leaves the pretrained start as the result
    tuned, _ = pipeline.fine_tune(
        train, valid, scheme, table,
        replace(config, pretrained=str(archive), learning_rate=0.0), model_config)
    for model in (encoder.load_model(model_config, str(archive)),
                  pipeline.Checkpoint.load(tmp_path / "ck").model, tuned.model):
        assert [p.name for p in model.parameters()] == list(entries)
        for p, data in zip(model.parameters(), entries.values()):
            assert p.data.dtype == np.float64 and np.array_equal(p.data, data), p.name


def test_loaded_checkpoint_holds_one_copy_of_its_weights(tmp_path):
    scheme = default_synthetic_scheme()
    train = generate_synthetic(10, scheme, seed=30)
    table = train_bpe(word_frequencies(r.words for r in train.records), 40)
    model_config = ModelConfig(num_layers=2, hidden_size=256, num_heads=4, ffn_size=1024,
                               vocab_size=len(table.pieces), max_positions=128,
                               num_labels=len(scheme.labels))
    pipeline.Checkpoint(kind="encoder", scheme=scheme,
                        train_config=pipeline.TrainConfig(max_len=128),
                        model_config=model_config, model=EncoderModel(model_config, seed=3),
                        table=table).save(tmp_path / "ck")
    weight_bytes = 8 * param_count(model_config)    # about 13 MB
    notes = generate_synthetic(3, scheme, seed=31)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ckpt = pipeline.Checkpoint.load(tmp_path / "ck")
        held, load_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        pipeline.predict(ckpt, notes)
        predict_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert load_peak - base <= 1.1 * weight_bytes
    assert held - base <= 1.05 * weight_bytes
    assert predict_peak - base <= 1.5 * weight_bytes


def test_checkpoint_round_trips_line_separator_characters(tmp_path):
    # \x85, \u2028, \v and \x1c break lines for str.splitlines, not for the
    # checkpoint writers, so labels and config values may hold them
    scheme = LabelScheme(labels=("N.A.", "a\x85b", "c\u2028d", "e\vf", "g\x1ch"))
    table = train_bpe({"alpha": 2, "beta": 1}, 5)
    model_config = ModelConfig(num_layers=1, hidden_size=4, num_heads=2, ffn_size=8,
                               vocab_size=len(table.pieces), max_positions=16,
                               num_labels=len(scheme.labels))
    train_config = pipeline.TrainConfig(pretrained="w\x85\u2028.tarch")
    pipeline.Checkpoint(kind="encoder", scheme=scheme, train_config=train_config,
                        model_config=model_config, model=EncoderModel(model_config),
                        table=table).save(tmp_path / "ck")
    loaded = pipeline.Checkpoint.load(tmp_path / "ck")
    assert loaded.scheme == scheme
    assert loaded.table == table
    assert loaded.train_config == train_config


def test_predict_empty_and_repeatable(tiny_setup):
    scheme, train, valid, table, model_config = tiny_setup
    config = tiny_train_config(epochs=1)
    ckpt, _ = pipeline.fine_tune(train, valid, scheme, table, config, model_config)
    empty = RecordSet(split="test", records=())
    assert pipeline.predict(ckpt, empty).records == ()
    a = pipeline.predict(ckpt, valid)
    b = pipeline.predict(ckpt, valid)
    assert a == b


def test_predict_rejects_labels_outside_scheme(tiny_setup):
    scheme, train, valid, table, model_config = tiny_setup
    config = tiny_train_config(epochs=1)
    ckpt, _ = pipeline.fine_tune(train, valid, scheme, table, config, model_config)
    from handover_ie.corpus import Record
    alien = RecordSet(split="test", records=(
        Record(id="x", words=("a",), labels=(99,)),
    ))
    with pytest.raises(LabelingError):
        pipeline.predict(ckpt, alien)


def test_fine_tune_encodes_each_record_once(tiny_setup, monkeypatch):
    scheme, train, valid, table, model_config = tiny_setup
    encode_words = pipeline.encode_words
    calls = []

    def counting(words, *args, **kwargs):
        calls.append(tuple(words))
        return encode_words(words, *args, **kwargs)

    monkeypatch.setattr(pipeline, "encode_words", counting)
    for epochs in (1, 3):
        calls.clear()
        pipeline.fine_tune(train, valid, scheme, table, tiny_train_config(epochs=epochs),
                           model_config)
        # one call per train and validation record, however many epochs run
        assert sorted(calls) == sorted(r.words for r in train.records + valid.records)


def test_divergent_settings_raise(tiny_setup):
    # adaptive updates keep the loss finite at any plain learning rate, so a
    # compounding decoupled weight decay is what actually overflows weights
    scheme, train, valid, table, model_config = tiny_setup
    config = tiny_train_config(learning_rate=1e8, epochs=30, weight_decay=1e8)
    from handover_ie.tensor import TrainingDivergence
    with pytest.raises(TrainingDivergence,
                       match=r"^non-finite loss at epoch \d+, batch start \d+$"):
        with np.errstate(all="ignore"):
            pipeline.fine_tune(train, valid, scheme, table, config, model_config)


def _window(ids):
    """A TokenizedSequence holding the given ids, one word per position."""
    n = len(ids)
    return TokenizedSequence(tuple(ids), ("x",) * n, tuple(range(n)), {i: i for i in range(n)},
                             (0, n), (0, n))


def _run_step(step, model_config, lengths, monkeypatch):
    """One batch step on a fresh seeded model: the packed pipeline._batch_gradient
    or the per-window oracle. Returns the step's result, every parameter
    gradient, the dropout masks drawn (in draw order), the masks the blocks
    applied, the log-probabilities the loss read and the number of backward
    sweeps."""
    data = np.random.default_rng(41)
    batch = []
    for t in lengths:
        labels = data.integers(0, model_config.num_labels, t).tolist()
        if t > 2:
            labels[0] = labels[-1] = IGNORE_INDEX
        batch.append((_window(data.integers(0, model_config.vocab_size, t).tolist()), labels))
    model = EncoderModel(model_config, seed=42)
    helpers.randomize(model.parameters(), np.random.default_rng(43), scale=0.3)
    seen = {"drawn": [], "applied": [], "log_probs": [], "sweeps": 0}
    dropout_mask, residual_norm = T.dropout_mask, T._residual_norm
    token_loss, backward = encoder.token_loss, T.backward

    def drawing(*args):
        seen["drawn"].append(dropout_mask(*args))
        return seen["drawn"][-1]

    def applying(x, out, gain, bias, mask):
        seen["applied"].append(mask)
        return residual_norm(x, out, gain, bias, mask)

    def reading(log_probs, labels, lengths):
        seen["log_probs"].append((log_probs.data.copy(), labels, lengths))
        return token_loss(log_probs, labels, lengths)

    def sweeping(*args, **kwargs):
        seen["sweeps"] += 1
        return backward(*args, **kwargs)

    monkeypatch.setattr(T, "dropout_mask", drawing)
    monkeypatch.setattr(T, "_residual_norm", applying)
    monkeypatch.setattr(encoder, "token_loss", reading)
    monkeypatch.setattr(T, "backward", sweeping)
    try:
        result = step(model, batch, np.random.default_rng(44))
    finally:
        monkeypatch.undo()
    return result, [p.grad for p in model.parameters()], seen


def _step_config(dropout, **shape):
    return ModelConfig(**{**dict(num_layers=2, hidden_size=16, num_heads=2, ffn_size=32,
                                 vocab_size=40, max_positions=12, num_labels=4), **shape},
                       dropout=dropout)


# under sinusoidal positions the constant position rows are on the tape and
# receive a gradient that nothing reads; no parameter's gradient moves
@pytest.mark.parametrize("dropout, position_mode", [
    pytest.param(0.0, "learned", id="0.0"),
    pytest.param(0.2, "learned", id="0.2"),
    pytest.param(0.0, "sinusoidal", id="0.0-sinusoidal"),
    pytest.param(0.2, "sinusoidal", id="0.2-sinusoidal"),
])
def test_a_group_of_one_window_is_bit_equal_to_the_per_window_step(dropout, position_mode,
                                                                   monkeypatch):
    config = _step_config(dropout, position_mode=position_mode)
    packed, packed_grads, seen = _run_step(pipeline._batch_gradient, config, [12], monkeypatch)
    losses, oracle_grads, oracle = _run_step(helpers.reference_batch_gradient, config, [12],
                                             monkeypatch)
    assert packed == losses[0]
    for name, a, b in zip(dict(encoder.parameter_layout(config)), packed_grads, oracle_grads):
        assert a.tobytes() == b.tobytes(), name
    assert len(seen["drawn"]) == (4 if dropout else 0)
    for a, b in zip(seen["drawn"], oracle["drawn"], strict=True):
        assert a.tobytes() == b.tobytes()


# the bound on a packed step against the per-window oracle: a packed product
# or column sum adds in another order than the per-window ones, which moved
# gradients of size 0.01-1 by at most 2.2e-16 when this bound was set
PACKED_STEP_TOL = 1e-12


@pytest.mark.parametrize("dropout", [0.0, 0.2])
def test_a_packed_step_matches_the_per_window_step(dropout, monkeypatch):
    # ragged windows, 1-row and max_len-row ones among them, packed as one group
    config = _step_config(dropout)
    lengths = [3, 1, 12, 7, 1, 12, 5]
    assert sum(lengths) * config.ffn_size <= pipeline.PACK_ELEMENTS
    packed, packed_grads, seen = _run_step(pipeline._batch_gradient, config, lengths,
                                           monkeypatch)
    losses, oracle_grads, oracle = _run_step(helpers.reference_batch_gradient, config, lengths,
                                             monkeypatch)
    assert seen["sweeps"] == 1 and oracle["sweeps"] == len(lengths)
    # the same draws in the same order: window by window, and within a window
    # layer 1 attention, layer 1 FFN, layer 2 attention, layer 2 FFN
    sublayers = 2 * config.num_layers
    assert len(seen["drawn"]) == (sublayers * len(lengths) if dropout else 0)
    for a, b in zip(seen["drawn"], oracle["drawn"], strict=True):
        assert a.tobytes() == b.tobytes()
    # each block applies its windows' masks stacked in window order
    assert len(seen["applied"]) == sublayers
    for i, mask in enumerate(seen["applied"]):
        if dropout:
            stacked = np.concatenate(seen["drawn"][i::sublayers])
            assert mask.tobytes() == stacked.tobytes()
        else:
            assert mask is None
    # per-window losses, read from the packed log-probabilities
    ((log_probs, labels, group_lengths),) = seen["log_probs"]
    assert group_lengths == lengths
    start = 0
    for t, loss in zip(lengths, losses, strict=True):
        lab = np.asarray(labels[start:start + t])
        rows = np.nonzero(lab != IGNORE_INDEX)[0]
        window = log_probs[start:start + t]
        assert abs(-window[rows, lab[rows]].mean() - loss) <= PACKED_STEP_TOL
        start += t
    assert abs(packed - sum(losses)) <= PACKED_STEP_TOL
    for name, a, b in zip(dict(encoder.parameter_layout(config)), packed_grads, oracle_grads):
        assert np.abs(a - b).max() <= PACKED_STEP_TOL, name


def test_a_shape_over_the_pack_limit_is_bit_equal_to_the_per_window_step(monkeypatch):
    # 17 rows x FFN 4096 = 69,632 elements, over the limit: one window per group
    config = _step_config(0.2, num_layers=1, hidden_size=8, ffn_size=4096, max_positions=17)
    lengths = [17, 17, 17]
    assert 17 * config.ffn_size > pipeline.PACK_ELEMENTS
    packed, packed_grads, seen = _run_step(pipeline._batch_gradient, config, lengths,
                                           monkeypatch)
    losses, oracle_grads, oracle = _run_step(helpers.reference_batch_gradient, config, lengths,
                                             monkeypatch)
    assert seen["sweeps"] == len(lengths)
    assert packed == sum(losses)
    for name, a, b in zip(dict(encoder.parameter_layout(config)), packed_grads, oracle_grads):
        assert a.tobytes() == b.tobytes(), name
    for a, b in zip(seen["drawn"], oracle["drawn"], strict=True):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("lengths,ffn_size,groups", [
    ([30] * 8, 64, [8]),
    ([17, 17], 4096, [1, 1]),
    ([16], 4096, [1]),
    ([8, 8, 1], 4096, [2, 1]),
    ([1, 20, 1], 4096, [1, 1, 1]),
    ([128] * 3, 3072, [1, 1, 1]),
    ([], 64, []),
], ids=["grid-tiny", "over", "at-limit", "cut", "alone", "base", "empty"])
def test_pack_groups_are_consecutive_and_within_the_limit(lengths, ffn_size, groups):
    cut = pipeline._pack_groups(lengths, ffn_size)
    assert [len(g) for g in cut] == groups
    assert [i for g in cut for i in g] == list(range(len(lengths)))
    for g in cut:
        assert len(g) == 1 or sum(lengths[i] for i in g) * ffn_size <= pipeline.PACK_ELEMENTS


# the bound on a packed inference forward against one window alone: a packed
# product adds in another order, which moved log-probabilities by at most
# 1.3e-15 over 60 random shapes when this bound was set
PACKED_PREDICT_TOL = 1e-12


# 9 rows x FFN 32: windows of 10 rows are over it, and a 5-row and a 3-row
# window pack together
@pytest.mark.parametrize("pack_elements", [None, 9 * 32], ids=["default", "cut"])
def test_packed_prediction_matches_the_one_window_oracle(pack_elements, monkeypatch):
    from handover_ie.corpus import Record
    from handover_ie.tokenizer import encode as encode_words

    scheme = default_synthetic_scheme()
    notes = generate_synthetic(8, scheme, seed=41).records
    # ragged notes of 1 to 3 windows at max_len 10, cut to (note, words)
    records = RecordSet(split="test", records=tuple(
        Record(id=notes[i].id, words=notes[i].words[:n], labels=notes[i].labels[:n])
        for i, n in ((0, 16), (1, 3), (5, 1), (2, 18), (3, 9), (4, 13), (6, 15), (7, 8))))
    table = train_bpe(word_frequencies(r.words for r in notes), 200)
    config = ModelConfig(num_layers=2, hidden_size=16, num_heads=2, ffn_size=32,
                         vocab_size=len(table.pieces), max_positions=10,
                         num_labels=len(scheme.labels))
    model = EncoderModel(config, seed=7)
    windows = [encode_words(r.words, table, 10) for r in records.records]
    assert {len(seqs) for seqs in windows} == {1, 2, 3}
    flat = [seq for seqs in windows for seq in seqs]
    lengths = [len(seq.token_ids) for seq in flat]

    oracle_rows = [encoder.run_token_classifier(model, [seq]).data for seq in flat]
    oracle = helpers.reference_predict_encoder(model, records, windows)
    if pack_elements is not None:
        monkeypatch.setattr(pipeline, "PACK_ELEMENTS", pack_elements)
    groups = pipeline._pack_groups(lengths, config.ffn_size)
    if pack_elements is None:
        assert len(groups) == 1
    else:
        assert len(groups) > 2 and any(len(g) > 1 for g in groups)
        assert any(t * config.ffn_size > pack_elements for t in lengths)
    seen = []
    run = encoder.run_token_classifier

    def recorded(model, group, rng=None):
        log_probs = run(model, group, rng)
        seen.append((list(group), log_probs.data))
        return log_probs

    monkeypatch.setattr(encoder, "run_token_classifier", recorded)
    pred = pipeline._predict_encoder(model, records, windows)

    # (a) one forward per group, whose rows are the oracle's windows stacked
    assert [len(g) for g, _ in seen] == [len(g) for g in groups]
    assert [seq for g, _ in seen for seq in g] == flat
    packed_rows = np.concatenate([rows for _, rows in seen])
    assert np.abs(packed_rows - np.concatenate(oracle_rows)).max() <= PACKED_PREDICT_TOL
    # (b) the oracle's labels wherever every window a word sits in is decided
    # by more than the bound
    def margin(rows, pos):
        top_two = np.sort(rows[pos])[-2:]
        return top_two[1] - top_two[0]

    starts = np.cumsum([0] + [len(seqs) for seqs in windows])
    checked = 0
    for k, (rec, want, got) in enumerate(zip(records.records, oracle.records, pred.records)):
        note_rows = oracle_rows[starts[k]:starts[k + 1]]
        for w in range(len(rec.words)):
            if all(margin(rows, seq.first_subtoken_of[w]) > PACKED_PREDICT_TOL
                   for seq, rows in zip(windows[k], note_rows) if w in seq.first_subtoken_of):
                assert got.labels[w] == want.labels[w], (rec.id, w)
                checked += 1
    assert checked > 0.9 * sum(len(r.words) for r in records.records)


def test_validation_runs_one_forward_per_packed_group(tiny_setup, monkeypatch):
    from handover_ie.tokenizer import encode as encode_words

    scheme, train, valid, table, model_config = tiny_setup
    config = tiny_train_config(epochs=1)
    n_train = sum(len(encode_words(r.words, table, config.max_len)) for r in train.records)
    valid_lengths = [len(seq.token_ids) for r in valid.records
                     for seq in encode_words(r.words, table, config.max_len)]
    # every training batch fits one group, so it runs one forward
    assert config.batch_size * config.max_len * model_config.ffn_size <= pipeline.PACK_ELEMENTS
    valid_groups = len(pipeline._pack_groups(valid_lengths, model_config.ffn_size))
    assert valid_groups < len(valid_lengths)
    calls = {"recorded": 0, "unrecorded": 0}
    run = encoder.run_token_classifier

    def counted(model, windows, rng=None):
        calls["unrecorded" if rng is None else "recorded"] += 1
        return run(model, windows, rng)

    monkeypatch.setattr(encoder, "run_token_classifier", counted)
    pipeline.fine_tune(train, valid, scheme, table, config, model_config)
    assert calls == {"recorded": -(-n_train // config.batch_size),
                     "unrecorded": valid_groups}


def test_grid_search_single_element(tiny_setup):
    scheme, train, valid, table, model_config = tiny_setup
    config = tiny_train_config(epochs=1)
    best, leaderboard = pipeline.grid_search([config], train, valid, scheme,
                                             model_config, table)
    assert best == config
    assert len(leaderboard) == 1


def test_grid_search_sorted_with_tie_breaks(tiny_setup):
    scheme, train, valid, table, model_config = tiny_setup
    grid = [
        tiny_train_config(learning_rate=3e-3, epochs=2),
        tiny_train_config(learning_rate=1e-9, epochs=1),   # cannot learn
        tiny_train_config(learning_rate=1e-3, epochs=2),
    ]
    best, leaderboard = pipeline.grid_search(grid, train, valid, scheme,
                                             model_config, table)
    scores = [row["val_macro_f1"] for row in leaderboard]
    assert scores == sorted(scores, reverse=True)
    assert best == leaderboard[0]["config"]
    # exact ties resolve to smaller learning rate then smaller epochs
    tied = [
        tiny_train_config(learning_rate=0.0, epochs=2),
        tiny_train_config(learning_rate=0.0, epochs=1),
    ]
    best_tied, board = pipeline.grid_search(tied, train, valid, scheme,
                                            model_config, table)
    assert board[0]["val_macro_f1"] == board[1]["val_macro_f1"]
    assert best_tied.epochs == 1


def test_grid_search_beats_random_baseline(tiny_setup):
    scheme, train, valid, table, model_config = tiny_setup
    from handover_ie.corpus import evaluated_classes
    evaluated = evaluated_classes(train, scheme)
    grid = [tiny_train_config(epochs=6), tiny_train_config(learning_rate=1e-9, epochs=1)]
    _, leaderboard = pipeline.grid_search(grid, train, valid, scheme, model_config, table)
    rand = evaluation.baseline_random(valid, seed=0, evaluated_ids=evaluated)
    counts = evaluation.confusion_counts(valid, rand, scheme)
    rand_f1 = evaluation.build_report(counts, scheme, evaluated).macro_f1
    assert leaderboard[0]["val_macro_f1"] > rand_f1


# configs that differ only in epochs, listed out of epoch order
EPOCH_GRID = [tiny_train_config(learning_rate=lr, epochs=ep)
              for lr in (3e-3, 1e-3) for ep in (1, 3, 2)]


@pytest.fixture(scope="module")
def loop_grid_result(tiny_setup):
    scheme, train, valid, table, model_config = tiny_setup
    return loop_grid_search(EPOCH_GRID, train, valid, scheme, model_config, table)


def _count_calls(monkeypatch, name):
    """Replace pipeline.<name> by a wrapper that records the config of each call."""
    calls = []
    fn = getattr(pipeline, name)

    def counted(*args):
        calls.append(next(a for a in args if isinstance(a, pipeline.TrainConfig)))
        return fn(*args)

    monkeypatch.setattr(pipeline, name, counted)
    return calls


def test_grid_search_shares_one_run_per_epoch_free_config(tiny_setup, loop_grid_result,
                                                          monkeypatch):
    scheme, train, valid, table, model_config = tiny_setup
    calls = _count_calls(monkeypatch, "fine_tune")
    result = pipeline.grid_search(EPOCH_GRID, train, valid, scheme, model_config, table)
    assert result == loop_grid_result
    assert calls == [EPOCH_GRID[1], EPOCH_GRID[4]]
    # the epoch counts are not all tied, so reading the wrong rows would show
    assert len({row["val_macro_f1"] for row in result[1]}) > 2


def test_grid_search_shares_one_crf_fit_across_epochs(tiny_setup, monkeypatch):
    scheme, train, valid, _, _ = tiny_setup
    grid = [pipeline.TrainConfig(kind="crf", max_iters=3, epochs=ep) for ep in (2, 1)]
    expected = loop_grid_search(grid, train, valid, scheme, None, None)
    calls = _count_calls(monkeypatch, "train_crf")
    assert pipeline.grid_search(grid, train, valid, scheme, None, None) == expected
    assert calls == [grid[0]]


def test_default_grid_shares_one_run_per_learning_rate_and_batch_size(monkeypatch):
    base = tiny_train_config(seed=7)
    grid = pipeline.default_grid(base)
    recipe = [(lr, bs, ep) for lr in (5e-5, 3e-5, 2e-5) for bs in (8, 16) for ep in (3, 4, 5)]
    assert [(c.learning_rate, c.batch_size, c.epochs) for c in grid] == recipe
    assert {replace(c, learning_rate=base.learning_rate, batch_size=base.batch_size,
                    epochs=base.epochs) for c in grid} == {base}
    calls = []

    def stub(train, valid, scheme, config, model_config, table):
        calls.append(config)
        # a score per epoch that is not monotone, so reading the wrong rows shows
        first = round(config.learning_rate * 1e6) + config.batch_size
        return None, [{"val_macro_f1": first * (e + 1) % 17 / 17} for e in range(config.epochs)]

    monkeypatch.setattr(pipeline, "train_model", stub)
    monkeypatch.setattr(helpers, "train_model", stub)
    result = pipeline.grid_search(grid, None, None, None, None, None)
    assert [(c.learning_rate, c.batch_size, c.epochs) for c in calls] == [
        (lr, bs, 5) for lr, bs, ep in recipe if ep == 5]
    assert len({row["val_macro_f1"] for row in result[1]}) > 2
    calls.clear()
    assert loop_grid_search(grid, None, None, None, None, None) == result
    assert calls == grid


def test_fine_tune_epochs_are_a_prefix_of_a_longer_run(tiny_setup):
    scheme, train, valid, table, model_config = tiny_setup
    _, short = pipeline.fine_tune(train, valid, scheme, table, tiny_train_config(epochs=2),
                                  model_config)
    _, long = pipeline.fine_tune(train, valid, scheme, table, tiny_train_config(epochs=4),
                                 model_config)
    assert short == long[:2]


def test_run_experiment_grid_leaderboard_equals_per_config_loop(tiny_setup, loop_grid_result,
                                                                tmp_path):
    scheme, train, valid, table, model_config = tiny_setup
    test = RecordSet(split="test", records=generate_synthetic(3, scheme, seed=32).records)
    base = tiny_train_config(epochs=1, num_merges=40, max_iters=3)
    model_kw = dict(num_layers=1, hidden_size=16, num_heads=2, ffn_size=32)
    # run_experiment derives the same table and model shape as tiny_setup
    assert pipeline.fit_tokenizer(train, 40, False) == table
    pipeline.run_experiment(train, valid, test, scheme, base, model_kw, EPOCH_GRID, tmp_path)
    expected = [{"learning_rate": r["config"].learning_rate,
                 "batch_size": r["config"].batch_size, "epochs": r["config"].epochs,
                 "val_macro_f1": r["val_macro_f1"]} for r in loop_grid_result[1]]
    text = (tmp_path / "grid_leaderboard.json").read_text(encoding="utf-8")
    assert text == json.dumps(expected, indent=2) + "\n"


def test_window_votes_resolve_to_farthest_from_boundary(tiny_setup, monkeypatch):
    import numpy as np
    from handover_ie import encoder as enc_mod
    from handover_ie.corpus import Record
    from handover_ie.tokenizer import encode as encode_words

    scheme, train, valid, table, model_config = tiny_setup
    config = tiny_train_config(epochs=1, max_len=8)
    ckpt, _ = pipeline.fine_tune(train, valid, scheme, table, config, model_config)

    words = tuple(train.records[0].words[i % len(train.records[0].words)]
                  for i in range(14))
    record_set = RecordSet(split="test", records=(
        Record(id="long", words=words, labels=(0,) * len(words)),
    ))
    seqs = encode_words(words, table, max_len=8)
    assert len(seqs) >= 2

    scored = {"windows": 0}
    n_labels = len(scheme.labels)

    def fake_classifier(model, windows, rng=None):
        # every row of a stacked window predicts that window's index among
        # all the windows scored so far
        lp = np.full((sum(len(w.token_ids) for w in windows), n_labels), -10.0)
        start = 0
        for w in windows:
            lp[start:start + len(w.token_ids), scored["windows"] % n_labels] = -0.1
            start += len(w.token_ids)
            scored["windows"] += 1
        return T.Tensor(lp)

    monkeypatch.setattr(enc_mod, "run_token_classifier", fake_classifier)
    pred = pipeline.predict(ckpt, record_set)
    assert scored["windows"] == len(seqs)
    chosen = pred.records[0].labels

    # independent statement of the rule: the winning window maximizes the
    # word's distance from its window boundaries, earlier window on ties
    spans = [seq.word_span for seq in seqs]
    containing = {w: [i for i, (lo, hi) in enumerate(spans)
                      if w in seqs[i].first_subtoken_of]
                  for w in range(len(words))}
    assert any(len(c) > 1 for c in containing.values())
    for w, windows in containing.items():
        dists = {i: min(w - spans[i][0], spans[i][1] - 1 - w) for i in windows}
        best = max(dists.values())
        expected = min(i for i in windows if dists[i] == best)
        assert chosen[w] == expected % n_labels, (w, dists, chosen[w])


def test_crf_checkpoint_round_trip(tmp_path):
    scheme = default_synthetic_scheme()
    train = generate_synthetic(15, scheme, seed=33)
    valid = RecordSet(split="validation",
                      records=generate_synthetic(5, scheme, seed=34).records)
    config = pipeline.TrainConfig(kind="crf", max_iters=40)
    ckpt, metrics = pipeline.train_crf(train, valid, scheme, config)
    assert metrics[0]["val_macro_f1"] is not None
    before = pipeline.predict(ckpt, valid)
    ckpt.save(tmp_path / "crf_ck")
    loaded = pipeline.Checkpoint.load(tmp_path / "crf_ck")
    assert pipeline.predict(loaded, valid) == before
    # an empty input takes the one CRF path too
    empty = RecordSet(split="test", records=())
    assert pipeline.predict(loaded, empty) == empty


def _fit_nothing(*args, **kwargs):
    raise AssertionError("a trainer began to fit with a config of the other kind")


def test_train_crf_rejects_an_encoder_config(tiny_setup, monkeypatch):
    # its checkpoint would say kind=encoder in config.txt and fail to load
    scheme, train, valid, _, _ = tiny_setup
    monkeypatch.setattr(crf, "train", _fit_nothing)
    with pytest.raises(ValueError, match="crf trainer got a config of kind 'encoder'"):
        pipeline.train_crf(train, valid, scheme, pipeline.TrainConfig(max_iters=5))


def test_fine_tune_rejects_a_crf_config(tiny_setup, monkeypatch):
    # its encoder files would load as a CRF and fail on crf_features.tsv
    scheme, train, valid, table, model_config = tiny_setup
    monkeypatch.setattr(pipeline, "EncoderModel", _fit_nothing)
    with pytest.raises(ValueError, match="encoder trainer got a config of kind 'crf'"):
        pipeline.fine_tune(train, valid, scheme, table, tiny_train_config(kind="crf"),
                           model_config)


def test_checkpoint_save_is_atomic(tmp_path, monkeypatch):
    scheme = default_synthetic_scheme()
    train = generate_synthetic(8, scheme, seed=36)
    no_valid = RecordSet(split="validation", records=())
    first, _ = pipeline.train_crf(train, no_valid, scheme,
                                  pipeline.TrainConfig(kind="crf", max_iters=3))
    second, _ = pipeline.train_crf(train, no_valid, scheme,
                                   pipeline.TrainConfig(kind="crf", max_iters=6))
    real_save_crf = crf.save_crf

    def crash_mid_save(model, features_path, weights_path):
        Path(features_path).write_text("w[0]\thalf\n", encoding="utf-8")
        raise OSError("disk full")

    monkeypatch.setattr(crf, "save_crf", crash_mid_save)
    with pytest.raises(OSError, match="disk full"):
        first.save(tmp_path / "fresh")
    assert not (tmp_path / "fresh").exists()

    monkeypatch.setattr(crf, "save_crf", real_save_crf)
    first.save(tmp_path / "kept")
    pinned = {p.name: p.read_bytes() for p in (tmp_path / "kept").iterdir()}
    monkeypatch.setattr(crf, "save_crf", crash_mid_save)
    with pytest.raises(OSError, match="disk full"):
        second.save(tmp_path / "kept")
    assert {p.name: p.read_bytes() for p in (tmp_path / "kept").iterdir()} == pinned
    assert np.array_equal(pipeline.Checkpoint.load(tmp_path / "kept").crf.weights,
                          first.crf.weights)
    assert [p.name for p in tmp_path.iterdir()] == ["kept"]   # no staging left behind

    # a save that succeeds replaces the checkpoint; a directory of other files stays
    monkeypatch.setattr(crf, "save_crf", real_save_crf)
    second.save(tmp_path / "kept")
    assert np.array_equal(pipeline.Checkpoint.load(tmp_path / "kept").crf.weights,
                          second.crf.weights)
    # the whole directory is replaced, so one that also holds other files is
    # refused and left as it is, a checkpoint beside them included
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "train.tsv").write_text("x\tN.A.\n", encoding="utf-8")
    with pytest.raises(ValueError, match="not part of a checkpoint: train.tsv"):
        first.save(tmp_path / "data")
    assert [p.name for p in (tmp_path / "data").iterdir()] == ["train.tsv"]
    (tmp_path / "kept" / "pred.tsv").write_text("x\tN.A.\n", encoding="utf-8")
    with pytest.raises(ValueError, match="not part of a checkpoint: pred.tsv"):
        first.save(tmp_path / "kept")
    assert np.array_equal(pipeline.Checkpoint.load(tmp_path / "kept").crf.weights,
                          second.crf.weights)
    assert (tmp_path / "kept" / "pred.tsv").is_file()

    # the working directory is never moved away
    (tmp_path / "kept" / "pred.tsv").unlink()
    monkeypatch.chdir(tmp_path / "kept")
    for here in (".", tmp_path / "kept"):
        with pytest.raises(ValueError, match="working directory"):
            first.save(here)
    assert np.array_equal(pipeline.Checkpoint.load(".").crf.weights, second.crf.weights)
    monkeypatch.chdir(tmp_path)

    # if the old checkpoint cannot be moved back, it is kept in the staging
    # directory rather than deleted
    real_rename = Path.rename

    def rename_back_fails(self, dest):
        if Path(dest) == tmp_path / "kept":
            raise OSError("rename failed")
        return real_rename(self, dest)

    monkeypatch.setattr(Path, "rename", rename_back_fails)
    with pytest.raises(OSError, match="rename failed"):
        first.save(tmp_path / "kept")
    monkeypatch.setattr(Path, "rename", real_rename)
    [staging] = [p for p in tmp_path.iterdir() if p.name.startswith(".kept.")]
    assert sorted(p.name for p in staging.iterdir()) == ["new", "old"]
    assert not (tmp_path / "kept").exists()
    assert np.array_equal(pipeline.Checkpoint.load(staging / "old").crf.weights,
                          second.crf.weights)


@pytest.mark.parametrize("with_grid", [False, True])
def test_run_experiment_writes_every_method(tiny_setup, tmp_path, with_grid):
    scheme, train, valid, _, _ = tiny_setup
    test = RecordSet(split="test", records=generate_synthetic(5, scheme, seed=32).records)
    base = tiny_train_config(epochs=2, num_merges=40, max_iters=40)
    model_kw = dict(num_layers=1, hidden_size=16, num_heads=2, ffn_size=32)
    grid = [base, replace(base, learning_rate=1e-3, epochs=1)] if with_grid else ()
    rows = pipeline.run_experiment(train, valid, test, scheme, base, model_kw, grid, tmp_path)

    names = {p.name for p in tmp_path.iterdir()}
    assert names == EXPERIMENT_FILES | ({"grid_leaderboard.json"} if with_grid else set())
    assert pipeline.Checkpoint.load(tmp_path / "encoder_checkpoint").kind == "encoder"
    assert pipeline.Checkpoint.load(tmp_path / "crf_checkpoint").kind == "crf"
    assert json.loads((tmp_path / "leaderboard.json").read_text(encoding="utf-8")) == rows
    assert sorted(row["method"] for row in rows) == sorted(METHODS)
    f1s = [row["macro_f1"] for row in rows]
    assert f1s == sorted(f1s, reverse=True)
    for row in rows:
        report, _ = parse_report_json(
            (tmp_path / f"report_{row['method']}.json").read_text(encoding="utf-8"))
        assert (report.macro_precision, report.macro_recall, report.macro_f1) == (
            row["macro_precision"], row["macro_recall"], row["macro_f1"])
        table = (tmp_path / f"report_{row['method']}.txt").read_text(encoding="utf-8")
        assert table.splitlines()[-2].endswith(f"{row['macro_f1']:.4f}")


def _write_corpus(tmp_path):
    scheme = default_synthetic_scheme()
    train = generate_synthetic(12, scheme, seed=40)
    valid = RecordSet(split="validation",
                      records=generate_synthetic(5, scheme, seed=41).records)
    test = RecordSet(split="test",
                     records=generate_synthetic(5, scheme, seed=42).records)
    paths = {}
    for name, rs in (("train", train), ("valid", valid), ("test", test)):
        p = tmp_path / f"{name}.tsv"
        p.write_text(serialize_records(rs, scheme), encoding="utf-8")
        paths[name] = p
    (tmp_path / "labels.txt").write_text(dump_scheme(scheme), encoding="utf-8")
    return scheme, paths


def _write_config(tmp_path, **overrides):
    fields = dict(learning_rate=3e-3, batch_size=4, epochs=3, seed=2, max_len=64,
                  num_merges=40, num_layers=1, hidden_size=16, num_heads=2,
                  ffn_size=32, max_iters=40)
    fields.update(overrides)
    path = tmp_path / "config.cfg"
    path.write_text("".join(f"{k}={v}\n" for k, v in fields.items()), encoding="utf-8")
    return path


def test_cli_full_flow(tmp_path, capsys):
    scheme, paths = _write_corpus(tmp_path)
    cfg = _write_config(tmp_path)

    assert cli_main(["synth", "--n", "4", "--seed", "3",
                     "--out", str(tmp_path / "synth.tsv")]) == 0
    assert (tmp_path / "synth.tsv").exists()

    assert cli_main(["tokenizer", "train", "--input", str(paths["train"]),
                     "--num-merges", "30", "--out", str(tmp_path / "tok")]) == 0
    assert (tmp_path / "tok" / "merges.txt").exists()
    assert cli_main(["tokenizer", "encode", "--table", str(tmp_path / "tok"),
                     "--input", str(paths["test"]),
                     "--out", str(tmp_path / "encoded.tsv")]) == 0

    for model in ("encoder", "crf"):
        out_dir = tmp_path / f"ck_{model}"
        assert cli_main([
            "train", "--model", model, "--config", str(cfg),
            "--train", str(paths["train"]), "--valid", str(paths["valid"]),
            "--scheme", str(tmp_path / "labels.txt"), "--out", str(out_dir),
        ]) == 0
        assert ("converged " in capsys.readouterr().out) == (model == "crf")
        pred_path = tmp_path / f"pred_{model}.tsv"
        assert cli_main(["predict", "--checkpoint", str(out_dir),
                         "--input", str(paths["test"]), "--out", str(pred_path)]) == 0
        assert cli_main([
            "eval", "--gold", str(paths["test"]), "--pred", str(pred_path),
            "--train", str(paths["train"]), "--scheme", str(tmp_path / "labels.txt"),
            "--format", "json", "--out", str(tmp_path / f"report_{model}.json"),
        ]) == 0
        report = json.loads((tmp_path / f"report_{model}.json").read_text(encoding="utf-8"))
        assert 0.0 <= report["macro_f1"] <= 1.0

    # a weights archive cut off inside an entry is a validation error, not a crash
    from handover_ie.tensor import ARCHIVE_MAGIC
    archive = tmp_path / "ck_encoder" / "model.tarch"
    cut = len(ARCHIVE_MAGIC) + 4 + len("embeddings.token")   # just before the rank field
    archive.write_bytes(archive.read_bytes()[:cut])
    assert cli_main(["predict", "--checkpoint", str(tmp_path / "ck_encoder"),
                     "--input", str(paths["test"])]) == 2
    assert "truncated archive" in capsys.readouterr().err

    for kind in ("random", "majority"):
        assert cli_main(["baseline", "--kind", kind, "--input", str(paths["test"]),
                         "--train", str(paths["train"]),
                         "--scheme", str(tmp_path / "labels.txt"),
                         "--out", str(tmp_path / f"base_{kind}.tsv")]) == 0
    capsys.readouterr()


def test_cli_eval_table_and_csv(tmp_path, capsys):
    scheme, paths = _write_corpus(tmp_path)
    assert cli_main(["baseline", "--kind", "majority", "--input", str(paths["test"]),
                     "--train", str(paths["train"]),
                     "--out", str(tmp_path / "pred.tsv")]) == 0
    for fmt in ("table", "csv"):
        assert cli_main(["eval", "--gold", str(paths["test"]),
                         "--pred", str(tmp_path / "pred.tsv"),
                         "--train", str(paths["train"]), "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert out


def test_readme_cli_synopsis_parses():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    parser = build_parser()
    seen = set()
    for line in filter(str.strip, block.replace("\\\n", " ").splitlines()):
        prog, *argv = line.replace("[", "").replace("]", "").split()
        assert prog == "handover-ie", line
        args = parser.parse_args(argv)
        seen.add(" ".join(filter(None, (args.command, getattr(args, "tok_command", None)))))
    assert seen == {"synth", "tokenizer train", "tokenizer encode", "train", "predict",
                    "eval", "baseline"}


def test_cli_validation_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("no tabs here\n", encoding="utf-8")
    code = cli_main(["tokenizer", "train", "--input", str(bad),
                     "--out", str(tmp_path / "tok")])
    assert code == 2
    assert "line 1" in capsys.readouterr().err


def test_cli_rejects_negative_crf_setting(tmp_path, capsys):
    _, paths = _write_corpus(tmp_path)
    cfg = _write_config(tmp_path, max_iters=-3)
    assert cli_main(["train", "--model", "crf", "--config", str(cfg),
                     "--train", str(paths["train"]), "--valid", str(paths["valid"]),
                     "--out", str(tmp_path / "ck")]) == 2
    assert "max_iters must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "ck").exists()


@pytest.mark.parametrize("key, value", [("learning_rate", "nan"), ("weight_decay", "-0.5"),
                                        ("learning_rate", "inf"), ("weight_decay", "inf")])
def test_cli_rejects_bad_encoder_setting(tmp_path, capsys, key, value):
    _, paths = _write_corpus(tmp_path)
    cfg = _write_config(tmp_path, **{key: value})
    assert cli_main(["train", "--model", "encoder", "--config", str(cfg),
                     "--train", str(paths["train"]), "--valid", str(paths["valid"]),
                     "--out", str(tmp_path / "ck")]) == 2
    assert f"{key} must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "ck").exists()


def test_cli_predict_rejects_a_file_as_checkpoint(tmp_path, capsys):
    _, paths = _write_corpus(tmp_path)
    assert cli_main(["predict", "--checkpoint", str(paths["train"]),
                     "--input", str(paths["test"])]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


GOLDEN_RUN = REPO / "tests" / "data" / "golden_run"
CHECKPOINT_FILES = sorted(str(p.relative_to(GOLDEN_RUN))
                          for p in GOLDEN_RUN.glob("*_checkpoint/*"))
# "\x85" and "\u2028" as UTF-8, then bytes that are not UTF-8 text at all
INSERTED_BYTES = ("\x85".encode(), "\u2028".encode(), b" ", b"\t", b"\r", b"\n", b"\x00",
                  b"\xff")


@pytest.fixture(scope="module")
def golden_notes(tmp_path_factory):
    scheme = default_synthetic_scheme()
    path = tmp_path_factory.mktemp("notes") / "test.tsv"
    path.write_text(serialize_records(generate_synthetic(3, scheme, seed=50), scheme),
                    encoding="utf-8")
    return path


@given(st.sampled_from(CHECKPOINT_FILES), st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_cli_predict_on_a_corrupted_checkpoint_exits_0_or_2(golden_notes, name, data):
    raw = (GOLDEN_RUN / name).read_bytes()
    at = data.draw(st.integers(0, len(raw)), label="offset")
    how = data.draw(st.sampled_from(("cut", "flip", "insert")), label="corruption")
    if how == "flip" and at < len(raw):
        bit = data.draw(st.integers(0, 7), label="bit")
        corrupted = raw[:at] + bytes([raw[at] ^ 1 << bit]) + raw[at + 1:]
    elif how == "insert":
        corrupted = raw[:at] + data.draw(st.sampled_from(INSERTED_BYTES)) + raw[at:]
    else:
        corrupted = raw[:at]
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = Path(tmp, "ck")
        shutil.copytree(GOLDEN_RUN / Path(name).parent, checkpoint)
        (checkpoint / Path(name).name).write_bytes(corrupted)
        assert cli_main(["predict", "--checkpoint", str(checkpoint), "--input",
                         str(golden_notes), "--out", str(Path(tmp, "pred.tsv"))]) in (0, 2)


def _predict_with_edited_config(tiny_setup, tmp_path, old, new):
    """Exit code of `predict` on a saved encoder checkpoint whose config.txt
    has old replaced by new."""
    scheme, _, _, table, model_config = tiny_setup
    _, paths = _write_corpus(tmp_path)
    ck = tmp_path / "ck"
    pipeline.Checkpoint(kind="encoder", scheme=scheme, train_config=tiny_train_config(),
                        model_config=model_config, model=EncoderModel(model_config),
                        table=table).save(ck)
    config = ck / "config.txt"
    text = config.read_text(encoding="utf-8")
    assert old in text
    config.write_text(text.replace(old, new), encoding="utf-8")
    return cli_main(["predict", "--checkpoint", str(ck), "--input", str(paths["test"])])


def test_cli_rejects_checkpoint_config_without_a_model_key(tiny_setup, tmp_path, capsys):
    assert _predict_with_edited_config(tiny_setup, tmp_path, "num_layers=1\n", "") == 2
    assert "lacks model key(s): num_layers" in capsys.readouterr().err


def test_cli_train_rejects_a_repeated_config_key(tmp_path, capsys):
    _, paths = _write_corpus(tmp_path)
    cfg = _write_config(tmp_path)
    cfg.write_text(cfg.read_text(encoding="utf-8") + "seed=3\n", encoding="utf-8")
    assert cli_main(["train", "--model", "crf", "--config", str(cfg),
                     "--train", str(paths["train"]), "--valid", str(paths["valid"]),
                     "--out", str(tmp_path / "ck")]) == 2
    assert "duplicate key 'seed'" in capsys.readouterr().err
    assert not (tmp_path / "ck").exists()


@pytest.mark.parametrize("key, value, message", [
    ("epochs", "x", "invalid literal for int() with base 10: 'x'"),
    ("learning_rate", "fast", "could not convert string to float: 'fast'"),
    ("lowercase", "maybe", "expected a boolean, got 'maybe'"),
    ("hidden_size", "1.5", "invalid literal for int() with base 10: '1.5'"),
])
def test_cli_train_names_the_line_and_key_of_a_value_that_fails_to_convert(
        tmp_path, capsys, key, value, message):
    _, paths = _write_corpus(tmp_path)
    cfg = _write_config(tmp_path, **{key: value})
    line_no = cfg.read_text(encoding="utf-8").splitlines().index(f"{key}={value}") + 1
    assert cli_main(["train", "--model", "encoder", "--config", str(cfg),
                     "--train", str(paths["train"]), "--valid", str(paths["valid"]),
                     "--out", str(tmp_path / "ck")]) == 2
    assert capsys.readouterr().err == f"error: config line {line_no}: key {key!r}: {message}\n"
    assert not (tmp_path / "ck").exists()


def test_cli_train_names_the_seed_variable_when_it_is_not_an_integer(tmp_path, capsys,
                                                                      monkeypatch):
    monkeypatch.setenv(pipeline.SEED_ENV_VAR, "abc")
    _, paths = _write_corpus(tmp_path)
    cfg = _write_config(tmp_path)
    assert cli_main(["train", "--model", "crf", "--config", str(cfg),
                     "--train", str(paths["train"]), "--valid", str(paths["valid"]),
                     "--out", str(tmp_path / "ck")]) == 2
    assert capsys.readouterr().err == (
        f"error: {pipeline.SEED_ENV_VAR}: expected an integer, got 'abc'\n")
    assert not (tmp_path / "ck").exists()


def test_cli_train_names_the_seed_variable_when_it_is_negative(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(pipeline.SEED_ENV_VAR, "-1")
    _, paths = _write_corpus(tmp_path)
    cfg = _write_config(tmp_path)
    assert cli_main(["train", "--model", "crf", "--config", str(cfg),
                     "--train", str(paths["train"]), "--valid", str(paths["valid"]),
                     "--out", str(tmp_path / "ck")]) == 2
    assert capsys.readouterr().err == (
        f"error: {pipeline.SEED_ENV_VAR}: seed must be >= 0, got -1\n")
    assert not (tmp_path / "ck").exists()


def test_cli_tokenizer_encode_writes_an_empty_file_for_no_records(tmp_path, capsys):
    _, paths = _write_corpus(tmp_path)
    assert cli_main(["tokenizer", "train", "--input", str(paths["train"]),
                     "--num-merges", "10", "--out", str(tmp_path / "tok")]) == 0
    empty = tmp_path / "empty.tsv"
    empty.write_text("", encoding="utf-8")

    def encode(source):
        out = tmp_path / "encoded.tsv"
        assert cli_main(["tokenizer", "encode", "--table", str(tmp_path / "tok"),
                         "--input", str(source), "--out", str(out)]) == 0
        return out.read_text(encoding="utf-8")

    text = encode(paths["test"])
    assert text.endswith("\n") and "\n\n" not in text    # one line per window
    assert encode(empty) == ""
    capsys.readouterr()


def test_checkpoint_load_rejects_a_repeated_config_key(tiny_setup, tmp_path):
    scheme, _, _, table, model_config = tiny_setup
    ck = tmp_path / "ck"
    pipeline.Checkpoint(kind="encoder", scheme=scheme, train_config=tiny_train_config(),
                        model_config=model_config, model=EncoderModel(model_config),
                        table=table).save(ck)
    config = ck / "config.txt"
    config.write_text(config.read_text(encoding="utf-8") + "hidden_size=16\n",
                      encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate key 'hidden_size'"):
        pipeline.Checkpoint.load(ck)


def test_cli_rejects_zero_attention_heads(tiny_setup, tmp_path, capsys):
    _, paths = _write_corpus(tmp_path)
    cfg = _write_config(tmp_path, num_heads=0)
    assert cli_main(["train", "--model", "encoder", "--config", str(cfg),
                     "--train", str(paths["train"]), "--valid", str(paths["valid"]),
                     "--out", str(tmp_path / "trained")]) == 2
    assert "num_heads must be >= 1" in capsys.readouterr().err
    assert _predict_with_edited_config(tiny_setup, tmp_path, "num_heads=2\n",
                                       "num_heads=0\n") == 2
    assert "num_heads must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, least", BELOW_LEAST)
def test_cli_train_exits_2_naming_a_setting_below_its_least_value(tmp_path, capsys, monkeypatch,
                                                                   key, value, least):
    monkeypatch.delenv(pipeline.SEED_ENV_VAR, raising=False)
    _, paths = _write_corpus(tmp_path)
    cfg = _write_config(tmp_path, **{key: value})
    assert cli_main(["train", "--model", "encoder", "--config", str(cfg),
                     "--train", str(paths["train"]), "--valid", str(paths["valid"]),
                     "--out", str(tmp_path / "trained")]) == 2
    assert capsys.readouterr().err == f"error: {key} must be >= {least}, got {value}\n"
    assert not (tmp_path / "trained").exists()


def test_cli_rejects_crf_weights_not_named_weights(tmp_path, capsys):
    scheme, paths = _write_corpus(tmp_path)
    train = generate_synthetic(8, scheme, seed=37)
    ckpt, _ = pipeline.train_crf(train, RecordSet(split="validation", records=()), scheme,
                                 pipeline.TrainConfig(kind="crf", max_iters=3))
    ck = tmp_path / "ck"
    ckpt.save(ck)
    weights = ckpt.crf.weights
    for entries in ([("weight", weights)], [("weights", weights), ("extra", weights)]):
        T.save_archive(entries, str(ck / "crf_weights.tarch"))
        assert cli_main(["predict", "--checkpoint", str(ck),
                         "--input", str(paths["test"])]) == 2
        assert "expected one entry named 'weights'" in capsys.readouterr().err


def test_cli_divergence_exit_code(tmp_path, capsys):
    _, paths = _write_corpus(tmp_path)
    cfg = _write_config(tmp_path, learning_rate=1e8, weight_decay=1e8, epochs=30)
    with np.errstate(all="ignore"):
        code = cli_main([
            "train", "--model", "encoder", "--config", str(cfg),
            "--train", str(paths["train"]), "--valid", str(paths["valid"]),
            "--out", str(tmp_path / "ck"),
        ])
    assert code == 3
    capsys.readouterr()


def test_cli_env_seed_override(tmp_path, monkeypatch, capsys):
    _, paths = _write_corpus(tmp_path)
    cfg = _write_config(tmp_path, epochs=1, seed=1)
    monkeypatch.setenv(pipeline.SEED_ENV_VAR, "123")
    assert cli_main([
        "train", "--model", "encoder", "--config", str(cfg),
        "--train", str(paths["train"]), "--valid", str(paths["valid"]),
        "--out", str(tmp_path / "ck"),
    ]) == 0
    config_text = (tmp_path / "ck" / "config.txt").read_text(encoding="utf-8")
    assert "seed=123" in config_text
    capsys.readouterr()


def test_cli_pretrained_round_trip(tmp_path, capsys):
    scheme, paths = _write_corpus(tmp_path)
    cfg = _write_config(tmp_path, epochs=1)
    first = tmp_path / "ck1"
    assert cli_main([
        "train", "--model", "encoder", "--config", str(cfg),
        "--train", str(paths["train"]), "--valid", str(paths["valid"]),
        "--out", str(first),
    ]) == 0
    second = tmp_path / "ck2"
    assert cli_main([
        "train", "--model", "encoder", "--config", str(cfg),
        "--train", str(paths["train"]), "--valid", str(paths["valid"]),
        "--tokenizer", str(first), "--pretrained", str(first / "model.tarch"),
        "--out", str(second),
    ]) == 0
    capsys.readouterr()


def test_end_to_end_synthetic_experiment_script(tmp_path):
    work = tmp_path / "exp"
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_synthetic_experiment.py"),
         "--workdir", str(work), "--n-train", "12", "--n-valid", "4", "--n-test", "6",
         "--epochs", "4", "--num-merges", "30", "--hidden-size", "16"],
        capture_output=True, text=True, encoding="utf-8", timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert {p.name for p in work.iterdir()} == EXPERIMENT_FILES | {
        "train.tsv", "validation.tsv", "test.tsv", "labels.txt"}
    leaderboard = json.loads((work / "leaderboard.json").read_text(encoding="utf-8"))
    assert {row["method"] for row in leaderboard} == {"encoder", "crf", "random", "majority"}
    for row in leaderboard:
        assert 0.0 <= row["macro_f1"] <= 1.0
    report = json.loads((work / "report_encoder.json").read_text(encoding="utf-8"))
    assert set(report["evaluated"]) == set(json.loads(
        (work / "report_crf.json").read_text(encoding="utf-8"))["evaluated"])


def test_standoff_conversion_script(tmp_path):
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "rec1.txt").write_text("Mary rests quietly", encoding="utf-8")
    (docs / "rec1.ann").write_text("0\t4\tname\n", encoding="utf-8")
    scheme_path = tmp_path / "labels.txt"
    scheme_path.write_text("N.A.\nname\n", encoding="utf-8")
    out = tmp_path / "out.tsv"
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "convert_standoff.py"),
         "--input-dir", str(docs), "--scheme", str(scheme_path), "--out", str(out)],
        capture_output=True, text=True, encoding="utf-8", timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_text(encoding="utf-8") == (
        "# id: rec1\nMary\tname\nrests\tN.A.\nquietly\tN.A.\n\n"
    )


def test_standoff_conversion_script_splits_annotations_at_line_breaks_only(tmp_path):
    # a label may hold \x85 or \u2028, as a scheme file may; the .ann line stays whole
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "rec1.txt").write_text("Mary rests quietly", encoding="utf-8")
    (docs / "rec1.ann").write_text("0\t4\tna\x85me\r\n5\t10\tst\u2028ate\r\n",
                                   encoding="utf-8", newline="")
    scheme_path = tmp_path / "labels.txt"
    scheme_path.write_text("N.A.\nna\x85me\nst\u2028ate\n", encoding="utf-8")
    out = tmp_path / "out.tsv"
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "convert_standoff.py"),
         "--input-dir", str(docs), "--scheme", str(scheme_path), "--out", str(out)],
        capture_output=True, text=True, encoding="utf-8", timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_text(encoding="utf-8") == (
        "# id: rec1\nMary\tna\x85me\nrests\tst\u2028ate\nquietly\tN.A.\n\n"
    )


def run_standoff_script(tmp_path, ann_text, text="Mary rests quietly"):
    """Convert one document, its .txt the given bytes or the UTF-8 bytes of
    text, with the given .ann text."""
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "rec1.txt").write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    (docs / "rec1.ann").write_text(ann_text, encoding="utf-8")
    scheme_path = tmp_path / "labels.txt"
    scheme_path.write_text("N.A.\nname\n", encoding="utf-8")
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / "convert_standoff.py"),
         "--input-dir", str(docs), "--scheme", str(scheme_path)],
        capture_output=True, text=True, encoding="utf-8", timeout=60,
    )


def test_standoff_conversion_script_names_the_line_of_a_bad_offset(tmp_path):
    proc = run_standoff_script(tmp_path, "0\t4\tname\n5\tx\tname\n")
    assert proc.returncode == 2
    ann = tmp_path / "docs" / "rec1.ann"
    assert proc.stderr == f"error: {ann}:2: start and end must be integers\n"


def test_standoff_conversion_script_names_the_document_and_span_of_an_unknown_label(tmp_path):
    proc = run_standoff_script(tmp_path, "0\t4\tnmae\n")
    assert proc.returncode == 2
    assert proc.stderr == "error: document 'rec1': span 0-4 has unknown label 'nmae'\n"


def test_standoff_conversion_script_counts_a_crlf_as_two_characters(tmp_path):
    text = "Bed 4\r\nDr A\r\nNurse\r\nPlan\r\nJohn rests"
    start = text.index("John")
    proc = run_standoff_script(tmp_path, f"{start}\t{start + 4}\tname\n", text)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("# id: rec1\nBed\tN.A.\n4\tN.A.\nDr\tN.A.\nA\tN.A.\n"
                           "Nurse\tN.A.\nPlan\tN.A.\nJohn\tname\nrests\tN.A.\n\n")


@pytest.mark.parametrize("start, end", [(-3, 2), (40, 60), (9, 4)])
def test_standoff_conversion_script_rejects_a_span_outside_the_text(tmp_path, start, end):
    proc = run_standoff_script(tmp_path, f"{start}\t{end}\tname\n")
    assert proc.returncode == 2
    assert proc.stderr == (f"error: document 'rec1': span {start}-{end} is not inside the "
                           f"text (0 <= start < end <= 18)\n")


def test_standoff_conversion_script_names_a_file_that_is_not_utf8(tmp_path):
    proc = run_standoff_script(tmp_path, "0\t4\tname\n", b"Mary \xffrests")
    assert proc.returncode == 2
    txt = tmp_path / "docs" / "rec1.txt"
    assert proc.stderr == (f"error: {txt}: 'utf-8' codec can't decode byte 0xff in "
                           f"position 5: invalid start byte\n")


def write_reader_inputs(d: Path) -> None:
    """One input of every reader under d: records with and without id lines, a
    scheme, a CRF config, a weight mapping with its archive and model config,
    both golden checkpoints and a standoff document with its scheme."""
    scheme = default_synthetic_scheme()
    text = serialize_records(generate_synthetic(3, scheme, seed=40), scheme)
    (d / "notes.tsv").write_text(text, encoding="utf-8")
    (d / "notes-no-ids.tsv").write_text("".join(
        line for line in text.splitlines(keepends=True) if not line.startswith("# id:")),
        encoding="utf-8")
    (d / "labels.txt").write_text(dump_scheme(scheme), encoding="utf-8")
    (d / "crf.cfg").write_text("max_iters=5\n", encoding="utf-8")
    config = ModelConfig(num_layers=1, hidden_size=8, num_heads=2, ffn_size=16,
                         vocab_size=12, max_positions=16, num_labels=3)
    (d / "model.cfg").write_text(pipeline.dump_config(pipeline.TrainConfig(), config),
                                 encoding="utf-8")
    T.save_archive([("ext/embed", EncoderModel(config, seed=50).token_emb.data)],
                   str(d / "ext.tarch"))
    (d / "map.tsv").write_text("ext/embed\tembeddings.token\n", encoding="utf-8")
    for checkpoint in ("encoder_checkpoint", "crf_checkpoint"):
        shutil.copytree(GOLDEN_RUN / checkpoint, d / checkpoint)
    (d / "docs").mkdir()
    (d / "docs" / "rec1.txt").write_text("Mary rests quietly", encoding="utf-8")
    (d / "docs" / "rec1.ann").write_text("0\t4\tname\n11\t18\tname\n", encoding="utf-8")
    (d / "standoff-labels.txt").write_text("N.A.\nname\n", encoding="utf-8")


def _baseline_argv(notes):
    # its output holds every record id and word as read
    return ["baseline", "--kind", "majority", "--input", notes, "--train", notes]


_STANDOFF_ARGV = ["convert_standoff.py", "--input-dir", "docs", "--scheme", "standoff-labels.txt"]
# each reader: the file it reads under write_reader_inputs' directory, and a
# command that reads it, handover-ie arguments or a script and its arguments
# (the records reader has its own test below)
READER_CASES = {
    "scheme": ("labels.txt", ["synth", "--n", "2", "--seed", "0", "--scheme", "labels.txt"]),
    "config": ("crf.cfg", ["train", "--model", "crf", "--config", "crf.cfg",
                           "--train", "notes.tsv", "--valid", "notes.tsv", "--out", "ck"]),
    "mapping": ("map.tsv", ["import_pretrained.py", "--archive", "ext.tarch", "--mapping",
                            "map.tsv", "--config", "model.cfg", "--out", "model.tarch"]),
    **{f"{checkpoint}-{name}": (f"{checkpoint}/{name}",
                                ["predict", "--checkpoint", checkpoint, "--input", "notes.tsv"])
       for checkpoint, names in (
           ("encoder_checkpoint", ("config.txt", "labels.txt", "merges.txt", "vocab.txt")),
           ("crf_checkpoint", ("config.txt", "labels.txt", "crf_features.tsv")))
       for name in names},
    # the offsets count the text after a byte-order mark
    "standoff-txt": ("docs/rec1.txt", _STANDOFF_ARGV),
    "standoff-ann": ("docs/rec1.ann", _STANDOFF_ARGV),
}


def run_command(argv):
    """Exit code, stdout and stderr of the script argv[0] names, or of
    handover-ie in this process when argv[0] names no script."""
    if argv[0].endswith(".py"):
        proc = subprocess.run([sys.executable, str(REPO / "scripts" / argv[0]), *argv[1:]],
                              capture_output=True, text=True, encoding="utf-8", timeout=60)
        return proc.returncode, proc.stdout, proc.stderr
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def check_reader(tmp_path, monkeypatch, name, argv):
    """argv, run in tmp_path over write_reader_inputs, gives the same result
    when the file at name starts with a byte-order mark, and one error line
    naming that file when it is not UTF-8."""
    monkeypatch.chdir(tmp_path)
    write_reader_inputs(tmp_path)
    target = tmp_path / name
    text = target.read_bytes()
    plain = run_command(argv)
    assert plain[0] == 0, plain[2]
    target.write_bytes(b"\xef\xbb\xbf" + text)
    assert run_command(argv) == plain
    # the one error line is the message of corpus.read_text's ValueError
    target.write_bytes(b"\xff" + text)
    assert run_command(argv) == (2, "", f"error: {name}: 'utf-8' codec can't decode byte "
                                        f"0xff in position 0: invalid start byte\n")


@pytest.mark.parametrize("case", READER_CASES)
def test_every_reader_drops_a_byte_order_mark_and_names_a_file_that_is_not_utf8(
        tmp_path, monkeypatch, case):
    check_reader(tmp_path, monkeypatch, *READER_CASES[case])


@pytest.mark.parametrize("name", ["notes.tsv", "notes-no-ids.tsv"],
                         ids=["id-line-first", "word-line-first"])
def test_a_records_file_reads_the_same_after_a_byte_order_mark(tmp_path, monkeypatch, name):
    check_reader(tmp_path, monkeypatch, name, _baseline_argv(name))


def test_import_pretrained_script(tmp_path):
    from handover_ie import tensor as T
    from handover_ie.encoder import EncoderModel

    cfg_path = tmp_path / "shared.cfg"
    config = ModelConfig(num_layers=1, hidden_size=8, num_heads=2, ffn_size=16,
                         vocab_size=12, max_positions=16, num_labels=3)
    # the shared train+model file; its seed initializes the unmapped tensors
    cfg_path.write_text(pipeline.dump_config(pipeline.TrainConfig(seed=7), config),
                        encoding="utf-8")
    donor = EncoderModel(config, seed=50)
    T.save_archive([("ext/embed", donor.token_emb.data)], str(tmp_path / "ext.tarch"))
    (tmp_path / "map.tsv").write_text("ext/embed\tembeddings.token\n", encoding="utf-8")
    out = tmp_path / "model.tarch"
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "import_pretrained.py"),
         "--archive", str(tmp_path / "ext.tarch"), "--mapping", str(tmp_path / "map.tsv"),
         "--config", str(cfg_path), "--out", str(out)],
        capture_output=True, text=True, encoding="utf-8", timeout=60,
        env={k: v for k, v in os.environ.items() if k != pipeline.SEED_ENV_VAR},
    )
    assert proc.returncode == 0, proc.stderr
    entries = T.load_archive(str(out))
    assert np.array_equal(entries["embeddings.token"], donor.token_emb.data)
    assert np.array_equal(entries["classifier.weight"], EncoderModel(config, seed=7).cls_w.data)

    # a config without a required model key is a ValueError that names the key
    text = cfg_path.read_text(encoding="utf-8")
    cfg_path.write_text(text.replace("ffn_size=16\n", ""), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "import_pretrained.py"),
         "--archive", str(tmp_path / "ext.tarch"), "--mapping", str(tmp_path / "map.tsv"),
         "--config", str(cfg_path), "--out", str(tmp_path / "other.tarch")],
        capture_output=True, text=True, encoding="utf-8", timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: config lacks model key(s): ffn_size\n"

    # a mapping that names one internal tensor twice is rejected, not won by its last line
    cfg_path.write_text(text, encoding="utf-8")
    T.save_archive([("ext/embed", donor.token_emb.data), ("ext/other", donor.token_emb.data)],
                   str(tmp_path / "ext.tarch"))
    (tmp_path / "map.tsv").write_text(
        "ext/embed\tembeddings.token\next/other\tembeddings.token\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "import_pretrained.py"),
         "--archive", str(tmp_path / "ext.tarch"), "--mapping", str(tmp_path / "map.tsv"),
         "--config", str(cfg_path), "--out", str(tmp_path / "twice.tarch")],
        capture_output=True, text=True, encoding="utf-8", timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr == ("error: mapping line 2: 'embeddings.token' is already mapped on "
                           "line 1\n")
    assert not (tmp_path / "twice.tarch").exists()


def test_rejected_synthetic_experiment_leaves_no_work_directory(tmp_path):
    work = tmp_path / "work"
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_synthetic_experiment.py"),
         "--workdir", str(work), "--n-train", "-1"],
        capture_output=True, text=True, encoding="utf-8", timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: n_records must be >= 0\n"
    assert not work.exists()


@pytest.mark.parametrize("script, args", [
    ("run_synthetic_experiment.py", ["--workdir", "{tmp}/work", "--n-train", "-1"]),
    ("reproduce_handover.py", ["--data-dir", "{tmp}/missing", "--workdir", "{tmp}/work"]),
    ("import_pretrained.py", ["--archive", "{tmp}/ext.tarch", "--mapping", "{tmp}/map.tsv",
                              "--config", "{tmp}/missing.cfg", "--out", "{tmp}/out.tarch"]),
    ("convert_standoff.py", ["--input-dir", "{tmp}", "--scheme", "{tmp}/missing.txt"]),
])
def test_every_script_exits_2_with_one_error_line_on_bad_input(tmp_path, script, args):
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *(a.format(tmp=tmp_path) for a in args)],
        capture_output=True, text=True, encoding="utf-8", timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert "Traceback" not in proc.stderr
