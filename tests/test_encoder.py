import hashlib
import math
import weakref

import numpy as np
import pytest

from handover_ie import tensor as T
from handover_ie.encoder import (
    CompatibilityError,
    EncoderModel,
    ModelConfig,
    classify,
    embed,
    encode,
    import_pretrained,
    load_model,
    save_model,
    token_loss,
)

from helpers import (
    grad_check,
    param_count,
    probed,
    randomize,
    reference_attention_block,
    reference_encode,
    reference_ffn_block,
)

TINY = ModelConfig(num_layers=1, hidden_size=4, num_heads=2, ffn_size=8,
                   vocab_size=10, max_positions=8, num_labels=3)


def tiny_model(seed=0, **overrides):
    cfg = TINY if not overrides else ModelConfig(**{**_cfg_dict(TINY), **overrides})
    return EncoderModel(cfg, seed=seed)


def _cfg_dict(cfg):
    from dataclasses import asdict
    return asdict(cfg)


def record_attention(monkeypatch):
    """Collect each layer's [heads, seq_len, seq_len] attention weights from
    the softmax kernel that tensor.attention_block calls."""
    sink = []
    softmax = T._softmax

    def recording(x):
        out = softmax(x)
        sink.append(out.copy())
        return out

    monkeypatch.setattr(T, "_softmax", recording)
    return sink


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(num_layers=1, hidden_size=6, num_heads=4, ffn_size=8,
                    vocab_size=5, max_positions=4, num_labels=2)
    with pytest.raises(ValueError):
        ModelConfig(num_layers=1, hidden_size=4, num_heads=2, ffn_size=2,
                    vocab_size=5, max_positions=4, num_labels=2)
    with pytest.raises(ValueError):
        ModelConfig(num_layers=1, hidden_size=4, num_heads=2, ffn_size=8,
                    vocab_size=5, max_positions=4, num_labels=1)
    with pytest.raises(ValueError):
        ModelConfig(num_layers=1, hidden_size=4, num_heads=2, ffn_size=8,
                    vocab_size=5, max_positions=4, num_labels=2, position_mode="rotary")


def test_embed_zero_tables_give_zero_output():
    model = tiny_model()
    model.token_emb.data[...] = 0.0
    model.segment_emb.data[...] = 0.0
    model.position_emb.data[...] = 0.0
    out = embed([1, 2, 3], model)
    assert np.all(out.data == 0.0)


def test_embed_additive_decomposition_is_exact():
    model = tiny_model(seed=3)
    ids = [4, 0, 9, 9]
    out = embed(ids, model).data
    # bitwise equal to the sum evaluated in the same association order
    expected = (model.token_emb.data[ids] + model.segment_emb.data[0]) \
        + model.position_emb.data[: len(ids)]
    assert np.array_equal(out, expected)
    for i, token in enumerate(ids):
        residual = out[i] - model.token_emb.data[token] - model.segment_emb.data[0]
        # re-association of the subtraction costs at most a few ulp
        assert np.abs(residual - model.position_emb.data[i]).max() < 1e-15


def test_embed_range_errors():
    model = tiny_model()
    with pytest.raises(IndexError):
        embed([0, 10], model)
    with pytest.raises(IndexError):
        embed([-1, 0], model)
    with pytest.raises(IndexError):
        embed(list(range(9)) * 1, model)  # length 9 > max_positions 8


def test_embed_with_zero_positions_is_permutation_equivariant():
    rng = np.random.default_rng(0)
    model = tiny_model(seed=1)
    model.position_emb.data[...] = 0.0
    ids = [3, 1, 4, 1, 5]
    base = embed(ids, model).data
    for _ in range(5):
        perm = rng.permutation(len(ids))
        permuted = embed([ids[p] for p in perm], model).data
        assert np.allclose(permuted, base[perm], atol=0.0)


def test_sinusoidal_mode_has_no_position_parameter():
    model = tiny_model(position_mode="sinusoidal")
    names = [p.name for p in model.parameters()]
    assert "embeddings.position" not in names
    out = embed([0, 1], model).data
    delta = out - model.token_emb.data[[0, 1]] - model.segment_emb.data[0]
    assert np.allclose(delta[0, 0::2], np.sin(0.0))
    assert np.allclose(delta[0, 1::2], np.cos(0.0))


def test_single_position_attention_weight_is_one(monkeypatch):
    model = tiny_model(seed=2)
    sink = record_attention(monkeypatch)
    encode(embed([5], model), model)
    assert len(sink) == 1
    for layer_attn in sink:
        assert layer_attn.shape == (2, 1, 1)
        assert np.allclose(layer_attn, 1.0, atol=0.0)


def test_attention_rows_sum_to_one(monkeypatch):
    model = tiny_model(seed=4, num_layers=2)
    sink = record_attention(monkeypatch)
    encode(embed([1, 2, 3, 4, 5], model), model)
    assert len(sink) == 2
    for layer_attn in sink:
        assert np.abs(layer_attn.sum(axis=-1) - 1.0).max() < 1e-6


def test_encode_permutation_equivariant_without_positions():
    rng = np.random.default_rng(5)
    model = tiny_model(seed=5, num_layers=2)
    model.position_emb.data[...] = 0.0
    ids = [2, 7, 1, 4, 4, 9]
    base = encode(embed(ids, model), model).data
    for _ in range(5):
        perm = rng.permutation(len(ids))
        permuted = encode(embed([ids[p] for p in perm], model), model).data
        assert np.abs(permuted - base[perm]).max() < 1e-5


def test_encode_shape_error():
    model = tiny_model()
    with pytest.raises(T.ShapeError):
        encode(T.Tensor(np.zeros((3, 5))), model)
    with pytest.raises(T.ShapeError):
        classify(T.Tensor(np.zeros((3, 5))), model)


def test_classify_zero_head_is_uniform():
    model = tiny_model(seed=7)
    model.cls_w.data[...] = 0.0
    model.cls_b.data[...] = 0.0
    out = classify(T.Tensor(np.random.default_rng(0).normal(0, 1, (4, 4))), model)
    assert np.allclose(out.data, -math.log(3), atol=1e-12)


def test_classify_rows_are_normalized_log_probs():
    model = tiny_model(seed=8)
    hidden = T.Tensor(np.random.default_rng(1).normal(0, 2, (6, 4)))
    out = classify(hidden, model).data
    assert np.abs(np.exp(out).sum(axis=-1) - 1.0).max() < 1e-9


def test_classify_argmax_matches_logits_argmax():
    rng = np.random.default_rng(2)
    model = tiny_model(seed=9)
    randomize(model.parameters(), rng)
    hidden = T.Tensor(rng.normal(0, 1, (8, 4)))
    logits = hidden.data @ model.cls_w.data + model.cls_b.data
    log_probs = classify(hidden, model).data
    assert np.array_equal(log_probs.argmax(axis=-1), logits.argmax(axis=-1))


def test_token_loss_uniform_predictions():
    n_labels = 5
    lp = T.Tensor(np.full((4, n_labels), -math.log(n_labels)))
    loss = token_loss(lp, [0, 3, -100, 2], [4])
    assert abs(float(loss.data) - math.log(n_labels)) < 1e-12


def test_token_loss_perfect_predictions():
    lp = np.full((3, 3), -50.0)
    gold = [2, 0, 1]
    for i, g in enumerate(gold):
        lp[i, g] = 0.0
    assert float(token_loss(T.Tensor(lp), gold, [3]).data) == 0.0


def test_token_loss_all_ignored_rejected():
    lp = T.Tensor(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        token_loss(lp, [-100, -100], [2])


def test_param_count_matches_base_and_large_shapes():
    base = ModelConfig(num_layers=12, hidden_size=768, num_heads=12, ffn_size=3072,
                       vocab_size=30522, max_positions=512, num_labels=2)
    large = ModelConfig(num_layers=24, hidden_size=1024, num_heads=16, ffn_size=4096,
                        vocab_size=30522, max_positions=512, num_labels=2)
    assert abs(param_count(base) - 110e6) <= 0.05 * 110e6
    assert abs(param_count(large) - 340e6) <= 0.05 * 340e6


def test_param_count_matches_parameter_enumeration():
    for overrides in ({}, {"position_mode": "sinusoidal"},
                      {"num_layers": 3, "num_labels": 4}):
        model = tiny_model(**overrides)
        assert param_count(model.config) == sum(p.data.size for p in model.parameters())


def test_full_model_grad_check_tiny_config():
    rng = np.random.default_rng(12)
    model = tiny_model(seed=12, num_layers=2, hidden_size=8, ffn_size=16)
    randomize(model.parameters(), rng)
    ids = rng.integers(0, 10, 6).tolist()
    labels = rng.integers(0, 3, 6).tolist()

    def loss_fn():
        return token_loss(classify(encode(embed(ids, model), model), model), labels, [6])

    err = grad_check(probed(loss_fn, model.parameters(), rng), model.parameters(),
                       epsilon=1e-5)
    assert err < 1e-5


def test_encode_stays_finite_for_large_inputs():
    model = tiny_model(seed=13, num_layers=2)
    x = T.Tensor(np.full((5, 4), 100.0) * np.array([[1], [-1], [1], [-1], [1]]))
    out = encode(x, model)
    assert np.all(np.isfinite(out.data))


def test_dropout_only_active_in_training_mode():
    cfg_drop = tiny_model(dropout=0.5).config
    model = EncoderModel(cfg_drop, seed=14)
    x = embed([1, 2, 3], model)
    a = encode(x, model).data
    b = encode(x, model).data
    assert np.array_equal(a, b)
    # dropout runs exactly when an rng is given
    c = encode(x, model, rng=np.random.default_rng(0)).data
    assert not np.array_equal(a, c)
    assert np.array_equal(c, encode(x, model, rng=np.random.default_rng(0)).data)
    # with a zero rate the rng is not drawn from
    plain, rng = tiny_model(seed=14), np.random.default_rng(0)
    assert np.array_equal(encode(x, plain, rng=rng).data, encode(x, plain).data)
    assert rng.random() == np.random.default_rng(0).random()


def test_checkpoint_save_load_save_is_byte_identical(tmp_path):
    model = tiny_model(seed=15)
    first = tmp_path / "m1.tarch"
    second = tmp_path / "m2.tarch"
    save_model(model, str(first))
    reloaded = load_model(model.config, str(first))
    save_model(reloaded, str(second))
    assert first.read_bytes() == second.read_bytes()
    for a, b in zip(model.parameters(), reloaded.parameters()):
        assert a.name == b.name and np.array_equal(a.data, b.data)


# sha256 of the seed-0 archive of each config; pins the initializer and its
# draw order across refactors of the constructor
SEED0_DIGESTS = [
    (TINY, "c0ca37535f4f480fc29f3ba168b95b0e836889b3a643599279c00ea857550fca"),
    (ModelConfig(num_layers=2, hidden_size=4, num_heads=2, ffn_size=8, vocab_size=10,
                 max_positions=8, num_labels=3, position_mode="sinusoidal"),
     "b1eca8f0d45b40a5adbb3b7b2e0dd552d9dc9c45c23ad592382c570d86032623"),
]


@pytest.mark.parametrize("config,digest", SEED0_DIGESTS, ids=["tiny", "two-layer-sinusoidal"])
def test_seeded_init_archive_digest_is_pinned(tmp_path, config, digest):
    path = tmp_path / "m.tarch"
    save_model(EncoderModel(config, seed=0), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_load_model_rejects_wrong_shapes(tmp_path):
    model = tiny_model(seed=16)
    path = tmp_path / "m.tarch"
    save_model(model, str(path))
    with pytest.raises(CompatibilityError):
        load_model(tiny_model(num_labels=4).config, str(path))


def test_import_pretrained_via_name_mapping(tmp_path):
    donor = tiny_model(seed=17)
    arch = tmp_path / "external.tarch"
    T.save_archive(
        [("enc/tok_table", donor.token_emb.data),
         ("enc/l0/q_w", donor.layers[0].wq.data)],
        str(arch),
    )
    mapping = tmp_path / "mapping.tsv"
    mapping.write_text(
        "enc/tok_table\tembeddings.token\n"
        "enc/l0/q_w\tlayer0.attention.query.weight\n",
        encoding="utf-8",
    )
    target = tiny_model(seed=99)
    assert not np.array_equal(target.token_emb.data, donor.token_emb.data)
    imported = import_pretrained(target, str(arch), str(mapping))
    assert imported == ["embeddings.token", "layer0.attention.query.weight"]
    assert np.array_equal(target.token_emb.data, donor.token_emb.data)
    assert np.array_equal(target.layers[0].wq.data, donor.layers[0].wq.data)

    bad = tmp_path / "bad.tsv"
    bad.write_text("missing\tembeddings.token\n", encoding="utf-8")
    with pytest.raises(CompatibilityError):
        import_pretrained(target, str(arch), str(bad))


@pytest.mark.parametrize("second_line", [
    "missing\tembeddings.segment",
    "enc/l0/q_w\tlayer9.attention.query.weight",
    "enc/l0/q_w\tembeddings.token",
    "enc/l0/q_w",
], ids=["not-in-archive", "not-in-model", "wrong-shape", "not-a-pair"])
def test_import_pretrained_rejected_line_leaves_model_unchanged(tmp_path, second_line):
    donor = tiny_model(seed=18)
    arch = tmp_path / "external.tarch"
    T.save_archive([("enc/tok_table", donor.token_emb.data),
                    ("enc/l0/q_w", donor.layers[0].wq.data)], str(arch))
    mapping = tmp_path / "mapping.tsv"
    mapping.write_text(f"enc/tok_table\tembeddings.token\n{second_line}\n", encoding="utf-8")
    target = tiny_model(seed=99)
    before = [p.data.copy() for p in target.parameters()]
    with pytest.raises(ValueError):
        import_pretrained(target, str(arch), str(mapping))
    for p, data in zip(target.parameters(), before):
        assert np.array_equal(p.data, data), p.name


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_recorded_and_unrecorded_forwards_are_bit_equal(dtype):
    model = tiny_model(seed=5, num_layers=2)
    randomize(model.parameters(), np.random.default_rng(6))
    for p in model.parameters():
        p.data = p.data.astype(dtype)
    ids = [1, 7, 3, 3, 0, 9]
    with T.recording():
        recorded = classify(encode(embed(ids, model), model), model)
        assert T._tape[-1][0] is recorded
    assert T._tape is None
    bare = classify(encode(embed(ids, model), model), model)
    assert bare.data.dtype == dtype
    assert bare.data.tobytes() == recorded.data.tobytes()


def test_model_binds_the_float64_arrays_it_is_given(tmp_path):
    path = tmp_path / "m.tarch"
    save_model(tiny_model(seed=4), str(path))
    weights = T.load_archive(str(path))
    model = EncoderModel(TINY, weights=weights)
    assert all(p.data is weights[p.name] for p in model.parameters())


def test_no_graph_outlives_its_sweep(monkeypatch):
    model = tiny_model(seed=8, num_layers=2)
    weights = []
    softmax = T._softmax

    def keep_a_weakref(x):
        # the attention weights are an activation the block keeps for its vjp
        out = softmax(x)
        weights.append(weakref.ref(out))
        return out

    monkeypatch.setattr(T, "_softmax", keep_a_weakref)
    with T.recording():
        loss = token_loss(classify(encode(embed([1, 2, 3], model), model), model), [0, 2, 1],
                          [3])
        assert weights[0]() is not None
        T.backward(loss)
        # the sweep freed the first layer's attention weights; the loss is still held
        assert weights[0]() is None and loss.grad is not None


def _mask(x, rate, rng):
    return T.dropout_mask(x.data, rate, rng) if rate > 0.0 else None


# each block, the chain of primitives it fuses, called alike, and the layer
# parameters it reads
BLOCKS = {
    "attention": (lambda x, layer, rate, rng: T.attention_block(
                      x, layer, 2, [len(x.data)], _mask(x, rate, rng)),
                  lambda x, layer, rate, rng: reference_attention_block(x, layer, 2, rate, rng),
                  ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo", "ln1_g", "ln1_b")),
    "ffn": (lambda x, layer, rate, rng: T.ffn_block(x, layer, _mask(x, rate, rng)),
            reference_ffn_block, ("w1", "b1", "w2", "b2", "ln2_g", "ln2_b")),
}


def _cast(model, dtype):
    for p in model.parameters():
        p.data = p.data.astype(dtype)
    return model


@pytest.mark.parametrize("rate", [0.0, 0.3], ids=["no-dropout", "dropout"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("block", sorted(BLOCKS))
def test_block_forward_is_bit_equal_to_its_primitive_chain(block, dtype, rate):
    model = tiny_model(seed=21, hidden_size=32, ffn_size=64, max_positions=20)
    randomize(model.parameters(), np.random.default_rng(22), scale=0.3)
    _cast(model, dtype)
    x = T.Tensor(np.random.default_rng(23).normal(0.0, 1.0, (20, 32)).astype(dtype))
    fused_rng, chain_rng = np.random.default_rng(24), np.random.default_rng(24)
    fused, chain, _ = BLOCKS[block]
    out = fused(x, model.layers[0], rate, fused_rng)
    assert out.data.dtype == dtype
    assert out.data.tobytes() == chain(x, model.layers[0], rate, chain_rng).data.tobytes()
    # the block draws its mask, and only then, exactly as the chain does
    assert fused_rng.bit_generator.state == chain_rng.bit_generator.state
    drew = fused_rng.bit_generator.state != np.random.default_rng(24).bit_generator.state
    assert drew == (rate > 0.0)


@pytest.mark.parametrize("dropout", [0.0, 0.3], ids=["no-dropout", "dropout"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_encoder_gradients_are_bit_equal_to_the_primitive_chain(dtype, dropout):
    # 32 wide and 20 long: the key gradient's merge makes a strided view
    # here, whose bias sum would add in another order than the chain's
    model = tiny_model(seed=25, num_layers=2, hidden_size=32, ffn_size=64, vocab_size=50,
                       max_positions=20, dropout=dropout)
    randomize(model.parameters(), np.random.default_rng(26), scale=0.3)
    _cast(model, dtype)
    data = np.random.default_rng(27)
    ids, labels = data.integers(0, 50, 20).tolist(), data.integers(0, 3, 20).tolist()

    def grads(encode_fn):
        T.zero_grad(model.parameters())
        with T.recording():
            hidden = encode_fn(embed(ids, model), model, np.random.default_rng(28))
            T.backward(token_loss(classify(hidden, model), labels, [20]))
        return hidden.data, [p.grad for p in model.parameters()]

    (fused, fused_grads), (chain, chain_grads) = grads(encode), grads(reference_encode)
    assert fused.tobytes() == chain.tobytes()
    for p, a, b in zip(model.parameters(), fused_grads, chain_grads):
        assert a.dtype == dtype and a.tobytes() == b.tobytes(), p.name


@pytest.mark.parametrize("block", sorted(BLOCKS))
def test_block_grad_checks_with_a_fixed_dropout_mask(block):
    rng = np.random.default_rng(29)
    model = tiny_model(seed=29)
    randomize(model.parameters(), rng)
    x = T.Parameter(rng.normal(0.0, 1.0, (3, 4)), "x")
    layer = model.layers[0]
    fused, _, names = BLOCKS[block]
    params = [x] + [getattr(layer, name) for name in names]
    mask = T.dropout_mask(x.data, 0.4, np.random.default_rng(30))
    assert 0 < np.count_nonzero(mask) < mask.size
    readout = T.Tensor(rng.normal(0.0, 1.0, (12, 1)))

    def loss_fn():
        # a fresh generator per call, so every evaluation drops the same units
        out = fused(x, layer, 0.4, np.random.default_rng(30))
        return T.reshape(T.matmul(T.reshape(out, (1, 12)), readout), ())

    assert grad_check(probed(loss_fn, params, rng), params) < 1e-6


def test_packed_attention_grad_checks_window_by_window():
    rng = np.random.default_rng(33)
    model = tiny_model(seed=33)
    randomize(model.parameters(), rng)
    x = T.Parameter(rng.normal(0.0, 1.0, (6, 4)), "x")
    layer = model.layers[0]
    params = [x] + [getattr(layer, name) for name in BLOCKS["attention"][2]]
    mask = T.dropout_mask(x.data, 0.4, np.random.default_rng(34))
    readout = T.Tensor(rng.normal(0.0, 1.0, (24, 1)))

    def loss_fn():
        out = T.attention_block(x, layer, 2, [2, 1, 3], mask)
        return T.reshape(T.matmul(T.reshape(out, (1, 24)), readout), ())

    assert grad_check(probed(loss_fn, params, rng), params) < 1e-6
    # a row attends only within its window: the middle window alone is a
    # one-row window, whose attention weight is one
    alone = T.attention_block(T.Tensor(x.data[2:3]), layer, 2, [1], mask[2:3])
    packed = T.attention_block(T.Tensor(x.data), layer, 2, [2, 1, 3], mask)
    assert np.abs(packed.data[2:3] - alone.data).max() < 1e-12


def test_attention_block_rejects_lengths_that_miss_rows():
    model = tiny_model(seed=35)
    with pytest.raises(T.ShapeError, match="sum to 4, input has 5 rows"):
        T.attention_block(T.Tensor(np.zeros((5, 4))), model.layers[0], 2, [3, 1], None)


def test_packed_positions_restart_in_each_window():
    model = tiny_model(seed=36)
    windows = [[4, 0, 9], [9], [1, 2]]
    packed = embed([i for w in windows for i in w], model, [3, 1, 2]).data
    alone = np.concatenate([embed(w, model).data for w in windows])
    assert packed.tobytes() == alone.tobytes()
    with pytest.raises(IndexError, match="length 9 exceeds"):
        embed(list(range(10)), model, [1, 9])


def test_a_recorded_window_puts_two_nodes_per_layer_on_the_tape():
    model = tiny_model(seed=31, num_layers=2, dropout=0.2)
    ids, lengths = [1, 2, 3, 4, 5, 6], [3, 1, 2]
    with T.recording():
        x = embed(ids, model, lengths)
        assert len(T._tape) == 5        # three lookups, two adds
        hidden = encode(x, model, np.random.default_rng(32), lengths)
        assert len(T._tape) == 5 + 2 * 2
        token_loss(classify(hidden, model), [0, 2, 1, 1, 2, 0], lengths)
        assert len(T._tape) == 5 + 2 * 2 + 4    # matmul, add, log-softmax, loss
    bare = classify(encode(embed(ids, model, lengths), model, np.random.default_rng(32),
                           lengths), model)
    assert T._tape is None and bare.data.shape == (6, model.config.num_labels)
