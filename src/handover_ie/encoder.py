"""Bidirectional transformer encoder with a per-token classification head.

Input embeddings are the sum of token, segment, and position tables
(learned positions by default, fixed sinusoidal as an option). Each layer
applies multi-head scaled-dot-product self-attention and a GELU feed-forward
block, both wrapped in residual-plus-layer-norm. Configurable from toy
shapes up to the standard base/large encoder sizes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import tensor as T
from .tensor import Parameter, Tensor
from .tokenizer import IGNORE_INDEX, TokenizedSequence

POSITION_MODES = ("learned", "sinusoidal")


class CompatibilityError(ValueError):
    """Checkpoint contents do not match the model or data they are used with."""


@dataclass(frozen=True, slots=True)
class ModelConfig:
    num_layers: int
    hidden_size: int
    num_heads: int
    ffn_size: int
    vocab_size: int
    max_positions: int
    num_labels: int
    position_mode: str = "learned"
    num_segments: int = 2
    dropout: float = 0.0

    def __post_init__(self) -> None:
        if self.hidden_size % self.num_heads:
            raise ValueError(
                f"hidden_size {self.hidden_size} not divisible by num_heads {self.num_heads}"
            )
        if self.ffn_size < self.hidden_size:
            raise ValueError("ffn_size must be >= hidden_size")
        if self.num_labels < 2:
            raise ValueError("num_labels must be >= 2")
        if self.position_mode not in POSITION_MODES:
            raise ValueError(f"position_mode must be one of {POSITION_MODES}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")


def truncated_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    """Normal(0, std) with draws beyond two deviations resampled."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2 * std
    return out


def sinusoidal_table(n_positions: int, dim: int) -> np.ndarray:
    pos = np.arange(n_positions)[:, None].astype(np.float64)
    i = np.arange(dim)[None, :]
    angles = pos / np.power(10000.0, (2 * (i // 2)) / dim)
    table = np.where(i % 2 == 0, np.sin(angles), np.cos(angles))
    return table


class EncoderLayer:
    def __init__(self, cfg: ModelConfig, idx: int, rng: np.random.Generator):
        h, f = cfg.hidden_size, cfg.ffn_size
        p = f"layer{idx}"

        def w(name, shape):
            return Parameter(truncated_normal(rng, shape), f"{p}.{name}")

        def b(name, size):
            return Parameter(np.zeros(size), f"{p}.{name}")

        self.wq, self.bq = w("attention.query.weight", (h, h)), b("attention.query.bias", h)
        self.wk, self.bk = w("attention.key.weight", (h, h)), b("attention.key.bias", h)
        self.wv, self.bv = w("attention.value.weight", (h, h)), b("attention.value.bias", h)
        self.wo, self.bo = w("attention.output.weight", (h, h)), b("attention.output.bias", h)
        self.ln1_g = Parameter(np.ones(h), f"{p}.attention_norm.gain")
        self.ln1_b = b("attention_norm.bias", h)
        self.w1, self.b1 = w("ffn.inner.weight", (h, f)), b("ffn.inner.bias", f)
        self.w2, self.b2 = w("ffn.outer.weight", (f, h)), b("ffn.outer.bias", h)
        self.ln2_g = Parameter(np.ones(h), f"{p}.ffn_norm.gain")
        self.ln2_b = b("ffn_norm.bias", h)

    def parameters(self) -> list[Parameter]:
        return [
            self.wq, self.bq, self.wk, self.bk, self.wv, self.bv, self.wo, self.bo,
            self.ln1_g, self.ln1_b, self.w1, self.b1, self.w2, self.b2,
            self.ln2_g, self.ln2_b,
        ]


class EncoderModel:
    """Holds all Parameters; shapes are fully determined by the config."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.Generator(np.random.PCG64(seed))
        h = config.hidden_size
        self.token_emb = Parameter(
            truncated_normal(rng, (config.vocab_size, h)), "embeddings.token"
        )
        self.segment_emb = Parameter(
            truncated_normal(rng, (config.num_segments, h)), "embeddings.segment"
        )
        if config.position_mode == "learned":
            self.position_emb: Optional[Parameter] = Parameter(
                truncated_normal(rng, (config.max_positions, h)), "embeddings.position"
            )
            self._position_table = None
        else:
            self.position_emb = None
            self._position_table = sinusoidal_table(config.max_positions, h)
        self.layers = [EncoderLayer(config, i, rng) for i in range(config.num_layers)]
        self.cls_w = Parameter(truncated_normal(rng, (h, config.num_labels)), "classifier.weight")
        self.cls_b = Parameter(np.zeros(config.num_labels), "classifier.bias")

    def parameters(self) -> list[Parameter]:
        params = [self.token_emb, self.segment_emb]
        if self.position_emb is not None:
            params.append(self.position_emb)
        for layer in self.layers:
            params.extend(layer.parameters())
        params.extend([self.cls_w, self.cls_b])
        return params

    def zero_grad(self) -> None:
        T.zero_grad(self.parameters())

    def position_rows(self, seq_len: int) -> Tensor:
        if self.position_emb is not None:
            return T.embedding_lookup(self.position_emb, np.arange(seq_len))
        return T.constant(self._position_table[:seq_len])


def param_count(config: ModelConfig) -> int:
    """Exact number of trainable scalars implied by the architecture."""
    h, f = config.hidden_size, config.ffn_size
    emb = config.vocab_size * h + config.num_segments * h
    if config.position_mode == "learned":
        emb += config.max_positions * h
    per_layer = 4 * (h * h + h) + 2 * (2 * h) + (h * f + f) + (f * h + h)
    head = h * config.num_labels + config.num_labels
    return emb + config.num_layers * per_layer + head


def embed(ids: TokenizedSequence | Sequence[int], model: EncoderModel) -> Tensor:
    """Sum of token, segment-0, and position embeddings per position."""
    raw = ids.token_ids if isinstance(ids, TokenizedSequence) else ids
    idx = np.asarray(raw, dtype=np.int64)
    cfg = model.config
    if idx.size and (idx.min() < 0 or idx.max() >= cfg.vocab_size):
        raise IndexError(f"token id out of range [0, {cfg.vocab_size})")
    if idx.size > cfg.max_positions:
        raise IndexError(f"sequence length {idx.size} exceeds max_positions {cfg.max_positions}")
    tok = T.embedding_lookup(model.token_emb, idx)
    seg = T.embedding_lookup(model.segment_emb, np.zeros(idx.size, dtype=np.int64))
    return T.add(T.add(tok, seg), model.position_rows(idx.size))


def encode(
    x: Tensor,
    model: EncoderModel,
    pad_mask: Optional[np.ndarray] = None,
    train: bool = False,
    rng: Optional[np.random.Generator] = None,
    attn_sink: Optional[list] = None,
) -> Tensor:
    """Apply all encoder layers to a [seq_len, H] input.

    pad_mask marks real (non-[PAD]) positions; masked positions are
    excluded from attention. attn_sink, when given, collects each layer's
    [heads, seq_len, seq_len] attention weights.
    """
    cfg = model.config
    h, a = cfg.hidden_size, cfg.num_heads
    if x.data.ndim != 2 or x.data.shape[1] != h:
        raise T.ShapeError(f"encode expects [seq_len, {h}], got {x.data.shape}")
    t = x.data.shape[0]
    dh = h // a
    bias = None
    if pad_mask is not None:
        bias = T.constant(np.where(np.asarray(pad_mask, bool), 0.0, -1e9)[None, None, :])
    drop = cfg.dropout if train else 0.0
    if drop > 0.0 and rng is None:
        raise ValueError("training-mode dropout requires an rng")

    def heads(y: Tensor) -> Tensor:
        return T.transpose(T.reshape(y, (t, a, dh)), (1, 0, 2))

    for layer in model.layers:
        q = heads(T.add(T.matmul(x, layer.wq), layer.bq))
        k = heads(T.add(T.matmul(x, layer.wk), layer.bk))
        v = heads(T.add(T.matmul(x, layer.wv), layer.bv))
        scores = T.scale(T.matmul(q, T.transpose(k, (0, 2, 1))), 1.0 / math.sqrt(dh))
        if bias is not None:
            scores = T.add(scores, bias)
        attn = T.softmax_rows(scores)
        if attn_sink is not None:
            attn_sink.append(attn.data.copy())
        ctx = T.reshape(T.transpose(T.matmul(attn, v), (1, 0, 2)), (t, h))
        out = T.add(T.matmul(ctx, layer.wo), layer.bo)
        if drop > 0.0:
            out = T.mul(out, T.dropout_mask(out, drop, rng))
        x = T.layer_norm(T.add(x, out), layer.ln1_g, layer.ln1_b)
        inner = T.gelu(T.add(T.matmul(x, layer.w1), layer.b1))
        ffn = T.add(T.matmul(inner, layer.w2), layer.b2)
        if drop > 0.0:
            ffn = T.mul(ffn, T.dropout_mask(ffn, drop, rng))
        x = T.layer_norm(T.add(x, ffn), layer.ln2_g, layer.ln2_b)
    return x


def classify(hidden: Tensor, model: EncoderModel) -> Tensor:
    """Affine map to label space followed by row log-softmax."""
    if hidden.data.ndim != 2 or hidden.data.shape[1] != model.config.hidden_size:
        raise T.ShapeError(
            f"classify expects [seq_len, {model.config.hidden_size}], got {hidden.data.shape}"
        )
    return T.log_softmax_rows(T.add(T.matmul(hidden, model.cls_w), model.cls_b))


def token_loss(
    log_probs: Tensor, aligned_labels: Sequence[int], ignore_index: int = IGNORE_INDEX
) -> Tensor:
    """Mean gold negative log-probability over non-ignored positions."""
    return T.masked_nll(log_probs, aligned_labels, ignore_index)


def run_token_classifier(
    model: EncoderModel,
    seq: TokenizedSequence,
    train: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    hidden = encode(embed(seq, model), model, train=train, rng=rng)
    return classify(hidden, model)


# --- checkpoint io ------------------------------------------------------------

def save_model(model: EncoderModel, path: str) -> None:
    T.save_archive([(p.name, p.data) for p in model.parameters()], path)


def load_model(config: ModelConfig, path: str) -> EncoderModel:
    model = EncoderModel(config)
    entries = T.load_archive(path)
    load_weights(model, entries)
    return model


def load_weights(model: EncoderModel, entries: dict[str, np.ndarray]) -> None:
    params = {p.name: p for p in model.parameters()}
    missing = set(params) - set(entries)
    extra = set(entries) - set(params)
    if missing or extra:
        raise CompatibilityError(
            f"checkpoint mismatch: missing {sorted(missing)}, unexpected {sorted(extra)}"
        )
    for name, p in params.items():
        if entries[name].shape != p.data.shape:
            raise CompatibilityError(
                f"{name}: checkpoint shape {entries[name].shape} vs model {p.data.shape}"
            )
        p.data = entries[name].astype(np.float64)
        p.grad = np.zeros_like(p.data)


def import_pretrained(model: EncoderModel, archive_path: str, mapping_path: str) -> list[str]:
    """Copy externally exported weights into the model via a name mapping.

    The mapping file has one `external<TAB>internal` pair per line; names
    not listed keep their fresh initialization. Returns the imported
    internal names in file order.
    """
    entries = T.load_archive(archive_path)
    params = {p.name: p for p in model.parameters()}
    imported = []
    with open(mapping_path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"mapping line {line_no}: expected external<TAB>internal")
            ext, internal = parts
            if ext not in entries:
                raise CompatibilityError(f"mapping line {line_no}: {ext!r} not in archive")
            if internal not in params:
                raise CompatibilityError(f"mapping line {line_no}: {internal!r} not in model")
            arr = entries[ext]
            p = params[internal]
            if arr.shape != p.data.shape:
                raise CompatibilityError(
                    f"{internal}: archive shape {arr.shape} vs model {p.data.shape}"
                )
            p.data = arr.astype(np.float64)
            p.grad = np.zeros_like(p.data)
            imported.append(internal)
    return imported
