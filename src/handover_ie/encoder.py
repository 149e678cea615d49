"""Bidirectional transformer encoder with a per-token classification head.

Input embeddings are the sum of token, segment, and position tables
(learned positions by default, fixed sinusoidal as an option). Each layer
applies multi-head scaled-dot-product self-attention and a GELU feed-forward
block, both wrapped in residual-plus-layer-norm. Configurable from toy
shapes up to the standard base/large encoder sizes.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Mapping, Optional, Sequence

import numpy as np

from . import tensor as T
from .corpus import read_lines, read_text
from .tensor import Parameter, Tensor
from .tokenizer import IGNORE_INDEX, TokenizedSequence

POSITION_MODES = ("learned", "sinusoidal")
INIT_STD = 0.02


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
        for name in ("num_layers", "hidden_size", "num_heads", "ffn_size", "vocab_size",
                     "max_positions", "num_segments"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
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


def truncated_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Normal(0, INIT_STD) with draws beyond two deviations resampled."""
    out = rng.normal(0.0, INIT_STD, size=shape)
    bad = np.abs(out) > 2 * INIT_STD
    while bad.any():
        out[bad] = rng.normal(0.0, INIT_STD, size=int(bad.sum()))
        bad = np.abs(out) > 2 * INIT_STD
    return out


def sinusoidal_table(n_positions: int, dim: int) -> np.ndarray:
    pos = np.arange(n_positions)[:, None].astype(np.float64)
    i = np.arange(dim)[None, :]
    angles = pos / np.power(10000.0, (2 * (i // 2)) / dim)
    table = np.where(i % 2 == 0, np.sin(angles), np.cos(angles))
    return table


# Each layer's Parameters: attribute, name within the layer, and shape in
# units of hidden_size (h) and ffn_size (f), in archive order.
LAYER_LAYOUT = (
    ("wq", "attention.query.weight", "hh"), ("bq", "attention.query.bias", "h"),
    ("wk", "attention.key.weight", "hh"), ("bk", "attention.key.bias", "h"),
    ("wv", "attention.value.weight", "hh"), ("bv", "attention.value.bias", "h"),
    ("wo", "attention.output.weight", "hh"), ("bo", "attention.output.bias", "h"),
    ("ln1_g", "attention_norm.gain", "h"), ("ln1_b", "attention_norm.bias", "h"),
    ("w1", "ffn.inner.weight", "hf"), ("b1", "ffn.inner.bias", "f"),
    ("w2", "ffn.outer.weight", "fh"), ("b2", "ffn.outer.bias", "h"),
    ("ln2_g", "ffn_norm.gain", "h"), ("ln2_b", "ffn_norm.bias", "h"),
)


def parameter_layout(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Every parameter's name and shape, in archive order, which is also
    the order the seeded initialization draws them in."""
    h = config.hidden_size
    dims = {"h": h, "f": config.ffn_size}
    layout = [("embeddings.token", (config.vocab_size, h)),
              ("embeddings.segment", (config.num_segments, h))]
    if config.position_mode == "learned":
        layout.append(("embeddings.position", (config.max_positions, h)))
    for i in range(config.num_layers):
        layout += [(f"layer{i}.{name}", tuple(dims[d] for d in shape))
                   for _, name, shape in LAYER_LAYOUT]
    return layout + [("classifier.weight", (h, config.num_labels)),
                     ("classifier.bias", (config.num_labels,))]


def initial_value(name: str, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Biases start at zero, layer-norm gains at one, every other tensor
    truncated normal."""
    if name.endswith(".bias"):
        return np.zeros(shape)
    if name.endswith(".gain"):
        return np.ones(shape)
    return truncated_normal(rng, shape)


class EncoderModel:
    """Holds all Parameters; shapes are fully determined by the config.

    `weights` maps every name of the parameter layout to an array of its
    shape (a loaded archive, say). The model takes float64 arrays over as
    they are, without copying them, and converts any other dtype to a
    float64 copy. Without `weights` the model draws its initialization
    from `seed`.
    """

    def __init__(self, config: ModelConfig, seed: int = 0,
                 weights: Optional[Mapping[str, np.ndarray]] = None):
        self.config = config
        shapes = dict(parameter_layout(config))
        if weights is None:
            rng = np.random.Generator(np.random.PCG64(seed))
            arrays = (initial_value(name, shape, rng) for name, shape in shapes.items())
        else:
            missing, extra = shapes.keys() - weights.keys(), weights.keys() - shapes.keys()
            if missing or extra:
                raise CompatibilityError(
                    f"checkpoint mismatch: missing {sorted(missing)}, unexpected {sorted(extra)}"
                )
            for name, shape in shapes.items():
                if weights[name].shape != shape:
                    raise CompatibilityError(
                        f"{name}: checkpoint shape {weights[name].shape} vs model {shape}"
                    )
            arrays = (weights[name] for name in shapes)
        self._params = [Parameter(np.asarray(data, dtype=np.float64), name)
                        for name, data in zip(shapes, arrays)]
        by_name = {p.name: p for p in self._params}
        self.token_emb = by_name["embeddings.token"]
        self.segment_emb = by_name["embeddings.segment"]
        self.position_emb: Optional[Parameter] = by_name.get("embeddings.position")
        self._position_table = (None if self.position_emb is not None
                                else sinusoidal_table(config.max_positions, config.hidden_size))
        self.layers = [
            SimpleNamespace(**{attr: by_name[f"layer{i}.{name}"] for attr, name, _ in LAYER_LAYOUT})
            for i in range(config.num_layers)
        ]
        self.cls_w = by_name["classifier.weight"]
        self.cls_b = by_name["classifier.bias"]

    def parameters(self) -> list[Parameter]:
        """Every Parameter in parameter-layout order."""
        return list(self._params)

    def position_rows(self, positions: np.ndarray) -> Tensor:
        if self.position_emb is not None:
            return T.embedding_lookup(self.position_emb, positions)
        return Tensor(self._position_table[positions])


def embed(ids: TokenizedSequence | Sequence[int], model: EncoderModel,
          lengths: Optional[Sequence[int]] = None) -> Tensor:
    """Sum of token, segment-0, and position embeddings per position.

    `ids` holds one window, or several stacked in order whose `lengths`
    are given; positions restart at 0 in each window.
    """
    raw = ids.token_ids if isinstance(ids, TokenizedSequence) else ids
    idx = np.asarray(raw, dtype=np.int64)
    lengths = [idx.size] if lengths is None else lengths
    cfg = model.config
    if max(lengths) > cfg.max_positions:
        raise IndexError(f"sequence length {max(lengths)} exceeds max_positions "
                         f"{cfg.max_positions}")
    tok = T.embedding_lookup(model.token_emb, idx)
    seg = T.embedding_lookup(model.segment_emb, np.zeros(idx.size, dtype=np.int64))
    positions = np.concatenate([np.arange(t) for t in lengths])
    return T.add(T.add(tok, seg), model.position_rows(positions))


def encode(x: Tensor, model: EncoderModel, rng: Optional[np.random.Generator] = None,
           lengths: Optional[Sequence[int]] = None) -> Tensor:
    """Apply all encoder layers to a [rows, H] input: one window, or several
    stacked in order whose `lengths` are given.

    Dropout draws its masks from rng and runs only when one is given: window
    by window, and within a window layer by layer, attention before
    feed-forward, as when each window runs alone.
    """
    cfg = model.config
    h, a = cfg.hidden_size, cfg.num_heads
    if x.data.ndim != 2 or x.data.shape[1] != h:
        raise T.ShapeError(f"encode expects [seq_len, {h}], got {x.data.shape}")
    lengths = [len(x.data)] if lengths is None else lengths
    masks = [None] * (2 * cfg.num_layers)
    if rng is not None and cfg.dropout > 0.0:
        per_window = [[T.dropout_mask(x.data[stop - t:stop], cfg.dropout, rng)
                       for _ in range(2 * cfg.num_layers)]
                      for t, stop in zip(lengths, itertools.accumulate(lengths))]
        masks = [np.concatenate(sublayer) for sublayer in zip(*per_window)]
    for layer, attention_mask, ffn_mask in zip(model.layers, masks[::2], masks[1::2]):
        x = T.attention_block(x, layer, a, lengths, attention_mask)
        x = T.ffn_block(x, layer, ffn_mask)
    return x


def classify(hidden: Tensor, model: EncoderModel) -> Tensor:
    """Affine map to label space followed by row log-softmax."""
    return T.log_softmax_rows(T.add(T.matmul(hidden, model.cls_w), model.cls_b))


def token_loss(log_probs: Tensor, aligned_labels: Sequence[int],
               lengths: Sequence[int]) -> Tensor:
    """Sum over windows of each window's mean gold negative log-probability
    over its positions not labelled IGNORE_INDEX; the windows' labels are
    stacked in order, and `lengths` gives each window's count."""
    return T.masked_nll(log_probs, aligned_labels, IGNORE_INDEX, lengths)


def run_token_classifier(model: EncoderModel, windows: Sequence[TokenizedSequence],
                         rng: Optional[np.random.Generator] = None) -> Tensor:
    """Label log-probabilities for the windows stacked row by row."""
    lengths = [len(w.token_ids) for w in windows]
    ids = [i for w in windows for i in w.token_ids]
    return classify(encode(embed(ids, model, lengths), model, rng, lengths), model)


# --- checkpoint io ------------------------------------------------------------

def save_model(model: EncoderModel, path: str) -> None:
    T.save_archive([(p.name, p.data) for p in model.parameters()], path)


def load_model(config: ModelConfig, path: str) -> EncoderModel:
    """The model whose weights are the archive's; draws no initialization."""
    return EncoderModel(config, weights=T.load_archive(path))


def import_pretrained(model: EncoderModel, archive_path: str, mapping_path: str) -> list[str]:
    """Copy externally exported weights into the model via a name mapping.

    The mapping file has one `external<TAB>internal` pair per line, each
    internal name once; names not listed keep their current values. The
    model changes only if every line is accepted. Returns the imported
    internal names in file order.
    """
    entries = T.load_archive(archive_path)
    weights = {p.name: p.data for p in model.parameters()}
    imported: dict[str, int] = {}  # internal name -> its mapping line
    for line_no, line in enumerate(read_lines(read_text(mapping_path)), 1):
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"mapping line {line_no}: expected external<TAB>internal")
        ext, internal = parts
        if ext not in entries:
            raise CompatibilityError(f"mapping line {line_no}: {ext!r} not in archive")
        if internal not in weights:
            raise CompatibilityError(f"mapping line {line_no}: {internal!r} not in model")
        if internal in imported:
            raise CompatibilityError(f"mapping line {line_no}: {internal!r} is already "
                                     f"mapped on line {imported[internal]}")
        weights[internal] = entries[ext]
        imported[internal] = line_no
    checked = EncoderModel(model.config, weights=weights)
    for p, new in zip(model.parameters(), checked.parameters()):
        p.data = new.data
    return list(imported)
