"""Dense tensors with exact reverse-mode gradients for a fixed primitive set.

Inside ``recording()`` every differentiable primitive appends its result
and vector-Jacobian closure to one tape, in creation order; outside it
nothing is recorded. Each encoder sub-layer, ``attention_block`` and
``ffn_block``, is one such node with a hand-written closure, over one
window or several stacked row by row. So a recorded forward of a 2-layer
encoder with learned positions puts 13 nodes on the tape, whether it
holds one window or a packed group of them: five for the embedding sum,
two per layer, and four for the classifier and its loss. ``backward`` on
a scalar on that tape pops the tape newest first, which reaches every
node after all of its consumers, and so fills exact gradients for all
reachable leaves; a constant input gets one too, which nothing reads.
The sweep consumes the tape: a graph is swept at most once, and it is
freed as it is swept.
A tensor's ``grad`` is None until backward first reaches it, and
``zero_grad`` sets it back to None. The exception is a parameter under
``pipeline.Adam``: its ``grad`` is bound as a zeroed view of the
optimizer's flat gradient buffer, backward adds into that view, and
``fine_tune`` drops the views when it ends.
float64 is the default precision; float32 is accepted and preserved.
Also home to the bit-exact tensor archive used for checkpoints.
"""
from __future__ import annotations

import itertools
import math
import os
import struct
import sys
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

LAYER_NORM_EPS = 1e-12


class ShapeError(ValueError):
    pass


class TrainingDivergence(RuntimeError):
    """Loss became non-finite during optimization."""


def _shape_error(op: str, a, b) -> ShapeError:
    return ShapeError(f"{op}: incompatible shapes {tuple(np.shape(a))} and {tuple(np.shape(b))}")


class Tensor:
    """A dense array node in the gradient tape."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, grad={'set' if self.grad is not None else 'none'})"


class Parameter(Tensor):
    """Named trainable leaf. It binds the float array it is given without
    copying it."""

    __slots__ = ("name",)

    def __init__(self, data, name: str):
        super().__init__(data)
        self.name = name


# results and their vector-Jacobian closures in creation order; None outside recording()
_tape: list[tuple[Tensor, Callable[[np.ndarray], None]]] | None = None


@contextmanager
def recording() -> Iterator[None]:
    """Record the tape inside the block. A nested block adds to the outer
    block's tape; leaving the outermost block drops what was not swept."""
    global _tape
    saved = _tape
    if _tape is None:
        _tape = []
    try:
        yield
    finally:
        _tape = saved


def _result(data: np.ndarray, vjp) -> Tensor:
    out = Tensor(data)
    if _tape is not None:
        _tape.append((out, vjp))
    return out


def _accum(t: Tensor, g: np.ndarray, rows: np.ndarray | None = None) -> None:
    """Add g into t.grad, or scatter-add it into the given rows of t.grad.

    The only place a gradient buffer is made: when t.grad is None, the
    first contribution allocates it in t.data's layout. BLAS sums a
    transposed operand in another order, so a buffer in any other layout
    changes the last bits of the weights a training run ends with. A
    parameter whose gradient is bound to a zeroed view (``pipeline.Adam``)
    allocates nothing: each contribution, the first too, adds into the
    view, and 0.0 + g == g. Every input of a recorded node receives its
    contribution, a constant input too, though nothing reads its gradient.
    """
    if t.grad is None:
        t.grad = np.empty_like(t.data)
        if rows is None:
            t.grad[...] = g
            return
        t.grad[...] = 0.0
    if rows is None:
        t.grad += g
    else:
        np.add.at(t.grad, rows, g)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def backward(root: Tensor, seed: float = 1.0) -> None:
    """Reverse-mode sweep from a scalar root on the tape; accumulates into
    .grad and consumes the whole tape.

    Every result is recorded after its inputs, so popping newest first
    runs a node's closure only once all of its consumers have added to
    its gradient. A root that is not on the tape (never recorded, or
    already swept) raises ValueError.
    """
    if root.data.size != 1:
        raise ShapeError(f"backward root must be scalar, got shape {root.data.shape}")
    if _tape is None or not any(node is root for node, _ in _tape):
        raise ValueError("backward root is not on the tape: record its forward inside "
                         "recording(), and sweep it once")
    _accum(root, np.full_like(root.data, seed))
    while _tape:
        node, vjp = _tape.pop()
        if node.grad is not None:
            vjp(node.grad)


def zero_grad(tensors: Iterable[Tensor]) -> None:
    """Drop the gradients: each is None until backward reaches its tensor again."""
    for t in tensors:
        t.grad = None


# --- kernels: the math the primitives and the encoder blocks share --------------

# The reductions call the ufuncs' reduce directly: ndarray.sum and .max call
# the same reduce, and .mean and .var are that sum divided by the row length,
# so the results are bit-equal to the wrappers' without their Python cost.
_sum = np.add.reduce
_max = np.maximum.reduce


def _softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - _max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / _sum(e, axis=-1, keepdims=True)


def _softmax_vjp(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    inner = _sum(g * y, axis=-1, keepdims=True)
    return y * (g - inner)


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """The normalized and affine output, with the xhat and 1/std its vjp reads."""
    n = x.shape[-1]
    xc = x - _sum(x, axis=-1, keepdims=True) / n
    var = _sum(xc * xc, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = xc * inv
    return xhat * gain + bias, xhat, inv


def _layer_norm_vjp(g: np.ndarray, gain: np.ndarray, xhat: np.ndarray,
                    inv: np.ndarray) -> np.ndarray:
    n = g.shape[-1]
    gx = g * gain
    m1 = _sum(gx, axis=-1, keepdims=True) / n
    m2 = _sum(gx * xhat, axis=-1, keepdims=True) / n
    return inv * (gx - m1 - xhat * m2)


# Python floats, so float32 inputs are not promoted
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _gelu(x: np.ndarray):
    """The output, with the normal cdf its vjp reads. Only the GELU needs
    scipy, whose import takes about half of the CLI's start-up, so a process
    that never runs an encoder never imports it."""
    from scipy.special import erf
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    return x * cdf, cdf


def _gelu_vjp(g: np.ndarray, x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    pdf = _INV_SQRT2PI * np.exp(-0.5 * x * x)
    return g * (cdf + x * pdf)


# --- primitives ---------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError:
        raise _shape_error("add", a.data, b.data) from None

    def vjp(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _result(data, vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError:
        raise _shape_error("mul", a.data, b.data) from None

    def vjp(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _result(data, vjp)


def scale(a: Tensor, c: float) -> Tensor:
    def vjp(g):
        _accum(a, g * c)

    return _result(a.data * c, vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D or equal-batch stacked matrix product."""
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2] \
            or a.data.shape[:-2] != b.data.shape[:-2]:
        raise _shape_error("matmul", a.data, b.data)
    data = a.data @ b.data

    def vjp(g):
        _accum(a, g @ b.data.swapaxes(-1, -2))
        _accum(b, a.data.swapaxes(-1, -2) @ g)

    return _result(data, vjp)


def embedding_lookup(table: Tensor, ids: Sequence[int]) -> Tensor:
    idx = np.asarray(ids, dtype=np.int64)
    if table.data.ndim != 2:
        raise _shape_error("embedding_lookup", table.data, idx)
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise IndexError(
            f"embedding id out of range [0, {table.data.shape[0]}): "
            f"min={idx.min()}, max={idx.max()}"
        )
    data = table.data[idx]

    def vjp(g):
        _accum(table, g, idx)

    return _result(data, vjp)


def softmax_rows(x: Tensor) -> Tensor:
    """Numerically stable softmax along the last axis."""
    y = _softmax(x.data)

    def vjp(g):
        _accum(x, _softmax_vjp(g, y))

    return _result(y, vjp)


def log_softmax_rows(x: Tensor) -> Tensor:
    shifted = x.data - _max(x.data, axis=-1, keepdims=True)
    lse = np.log(_sum(np.exp(shifted), axis=-1, keepdims=True))
    y = shifted - lse

    def vjp(g):
        _accum(x, g - np.exp(y) * _sum(g, axis=-1, keepdims=True))

    return _result(y, vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    h = x.data.shape[-1]
    if gain.data.shape != (h,) or bias.data.shape != (h,):
        raise _shape_error("layer_norm", x.data, gain.data)
    data, xhat, inv = _layer_norm(x.data, gain.data, bias.data)

    def vjp(g):
        _accum(gain, _unbroadcast(g * xhat, gain.data.shape))
        _accum(bias, _unbroadcast(g, bias.data.shape))
        _accum(x, _layer_norm_vjp(g, gain.data, xhat, inv))

    return _result(data, vjp)


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) Gaussian error linear unit."""
    data, cdf = _gelu(x.data)

    def vjp(g):
        _accum(x, _gelu_vjp(g, x.data, cdf))

    return _result(data, vjp)


def dropout_mask(like: np.ndarray, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout mask shaped and typed like an array: 0 or 1/(1-rate), from rng."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    keep = rng.random(like.shape) >= rate
    return keep.astype(like.dtype) / (1.0 - rate)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = x.data.shape
    data = x.data.reshape(shape)

    def vjp(g):
        _accum(x, g.reshape(old))

    return _result(data, vjp)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    inverse = tuple(np.argsort(axes))

    def vjp(g):
        _accum(x, g.transpose(inverse))

    return _result(x.data.transpose(axes), vjp)


def masked_nll(log_probs: Tensor, labels: Sequence[int], ignore_index: int,
               lengths: Sequence[int]) -> Tensor:
    """Sum over windows of each window's mean negative log-probability of
    its gold labels over its non-ignored rows.

    The windows' rows are stacked in order in `log_probs` and `labels`, and
    `lengths` gives each window's row count. Each row's gradient is the
    seed over its window's count, as when each window is its own loss.
    """
    labs = np.asarray(labels, dtype=np.int64)
    if log_probs.data.ndim != 2 or labs.shape != (log_probs.data.shape[0],) \
            or sum(lengths) != labs.size:
        raise _shape_error("masked_nll", log_probs.data, labs)
    rows = np.nonzero(labs != ignore_index)[0]
    # window w's kept rows are rows[ends[w]:ends[w + 1]]
    ends = np.searchsorted(rows, np.cumsum([0, *lengths]))
    counts = np.diff(ends)
    if rows.size == 0 or not counts.all():
        raise ValueError("all positions ignored; loss undefined")
    gold = labs[rows]
    if gold.min() < 0 or gold.max() >= log_probs.data.shape[1]:
        raise IndexError(f"label id out of range [0, {log_probs.data.shape[1]})")
    picked = log_probs.data[rows, gold]
    ends = ends.tolist()
    data = np.asarray(sum(-picked[start:stop].mean() for start, stop in zip(ends, ends[1:])))

    def vjp(g):
        gl = np.zeros_like(log_probs.data)
        gl[rows, gold] = np.repeat(-float(g) / counts, counts)
        _accum(log_probs, gl)

    return _result(data, vjp)


# --- encoder blocks -------------------------------------------------------------
# Each block is one encoder sub-layer, recorded as one tape node. Its input
# is one or more windows stacked row by row with no padding, [sum of
# lengths, H]. Every operation but the attention core works row by row and
# runs once over all rows, so each parameter gradient is one reduction over
# them; the attention core runs once per window. Over one window a block
# runs the same numpy operations, in the same order and on the same views,
# as the chain of primitives it stands for, so its output and gradients are
# bit-equal to that chain's; its vjp fills every parameter's gradient and
# the input's in one call.

def _residual_norm(x: np.ndarray, out: np.ndarray, gain: Tensor, bias: Tensor,
                   mask: np.ndarray | None):
    """layer_norm(x + out * mask), with what _residual_norm_vjp reads."""
    if mask is not None:
        out = out * mask
    y, xhat, inv = _layer_norm(x + out, gain.data, bias.data)
    return y, (mask, xhat, inv)


def _residual_norm_vjp(g: np.ndarray, gain: Tensor, bias: Tensor, saved):
    """Accumulate the norm's parameter gradients; return the gradients of
    the residual input and of the sub-layer output."""
    mask, xhat, inv = saved
    _accum(gain, _sum(g * xhat, axis=0))
    _accum(bias, _sum(g, axis=0))
    g_res = _layer_norm_vjp(g, gain.data, xhat, inv)
    return g_res, g_res if mask is None else g_res * mask


def attention_block(x: Tensor, layer, num_heads: int, lengths: Sequence[int],
                    mask: np.ndarray | None) -> Tensor:
    """layer_norm(x + self_attention(x) * mask) for windows of the given
    lengths stacked in x; each row attends only within its window.

    `layer` holds the query, key, value and output projections (wq, bq,
    wk, bk, wv, bv, wo, bo) and the norm's ln1_g and ln1_b. `mask` is the
    dropout mask, shaped like x, or None for no dropout.
    """
    n, h = x.data.shape
    if sum(lengths) != n:
        raise ShapeError(f"attention_block: window lengths sum to {sum(lengths)}, "
                         f"input has {n} rows")
    dh = h // num_heads
    xd = x.data
    projections = ((layer.wq, layer.bq), (layer.wk, layer.bk), (layer.wv, layer.bv))
    windows = [slice(stop - t, stop) for t, stop in zip(lengths, itertools.accumulate(lengths))]

    def heads(y):
        # a view: [rows, H] as [num_heads, rows, H / num_heads]
        return y.reshape(len(y), num_heads, dh).transpose(1, 0, 2)

    q, k, v = (heads(xd @ w.data + b.data) for w, b in projections)
    c = 1.0 / math.sqrt(dh)
    attn = [_softmax((q[:, s] @ k[:, s].transpose(0, 2, 1)) * c) for s in windows]
    # the context and the projection gradients are C-ordered [rows, H], as
    # the chain's gradient buffers: a sum over the rows of a strided view
    # adds in another order
    ctx = np.empty((n, h), v.dtype)
    ctx_heads = heads(ctx)
    for s, a in zip(windows, attn):
        ctx_heads[:, s] = a @ v[:, s]
    y, tail = _residual_norm(xd, ctx @ layer.wo.data + layer.bo.data,
                             layer.ln1_g, layer.ln1_b, mask)

    def vjp(g):
        g_res, g_out = _residual_norm_vjp(g, layer.ln1_g, layer.ln1_b, tail)
        _accum(layer.bo, _sum(g_out, axis=0))
        _accum(layer.wo, ctx.T @ g_out)
        g_ctx = heads(g_out @ layer.wo.data.T)
        g_proj = [np.empty((n, h), g_ctx.dtype) for _ in projections]
        g_q, g_k, g_v = map(heads, g_proj)
        for s, a in zip(windows, attn):
            g_scores = _softmax_vjp(g_ctx[:, s] @ v[:, s].swapaxes(-1, -2), a) * c
            g_q[:, s] = g_scores @ k[:, s]
            g_k[:, s] = (q[:, s].swapaxes(-1, -2) @ g_scores).swapaxes(-1, -2)
            g_v[:, s] = a.swapaxes(-1, -2) @ g_ctx[:, s]
        g_x = g_res
        # value, key, query: the order the primitive chain's sweep added them in
        for (w, b), g_p in zip(projections[::-1], g_proj[::-1]):
            _accum(b, _sum(g_p, axis=0))
            _accum(w, xd.T @ g_p)
            g_x = g_x + g_p @ w.data.T
        _accum(x, g_x)

    return _result(y, vjp)


def ffn_block(x: Tensor, layer, mask: np.ndarray | None) -> Tensor:
    """layer_norm(x + (gelu(x @ w1 + b1) @ w2 + b2) * mask) for a [rows, H]
    input; the norm is ln2_g, ln2_b. `mask` is the dropout mask, shaped
    like x, or None for no dropout."""
    xd = x.data
    pre = xd @ layer.w1.data + layer.b1.data
    inner, cdf = _gelu(pre)
    y, tail = _residual_norm(xd, inner @ layer.w2.data + layer.b2.data,
                             layer.ln2_g, layer.ln2_b, mask)

    def vjp(g):
        g_res, g_out = _residual_norm_vjp(g, layer.ln2_g, layer.ln2_b, tail)
        _accum(layer.b2, _sum(g_out, axis=0))
        _accum(layer.w2, inner.T @ g_out)
        g_pre = _gelu_vjp(g_out @ layer.w2.data.T, pre, cdf)
        _accum(layer.b1, _sum(g_pre, axis=0))
        _accum(layer.w1, xd.T @ g_pre)
        _accum(x, g_res + g_pre @ layer.w1.data.T)

    return _result(y, vjp)


# --- tensor archive --------------------------------------------------------------

ARCHIVE_MAGIC = b"TARCH1\n"
# values are stored little-endian and loaded in native order
_DTYPE_TAGS = {0: np.dtype(np.float32), 1: np.dtype(np.float64)}
_TAG_OF = {dtype: tag for tag, dtype in _DTYPE_TAGS.items()}


def save_archive(entries: Iterable[tuple[str, np.ndarray]], path: str) -> None:
    """Write named tensors: u32-LE name length, name, rank, extents, dtype tag, raw values."""
    with open(path, "wb") as fh:
        fh.write(ARCHIVE_MAGIC)
        for name, arr in entries:
            arr = np.asarray(arr)
            if arr.dtype not in _TAG_OF:
                raise ValueError(f"entry {name!r}: unsupported dtype {arr.dtype}")
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", arr.ndim))
            for n in arr.shape:
                fh.write(struct.pack("<I", n))
            fh.write(struct.pack("<I", _TAG_OF[arr.dtype]))
            fh.write(np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).tobytes())


def load_archive(path: str) -> dict[str, np.ndarray]:
    """Read an archive back into an ordered name -> array mapping.

    Each value is read straight into its own native-order array. A file
    that ends inside an entry, a duplicate entry name or an unknown dtype
    tag raises ValueError.
    """
    out: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(len(ARCHIVE_MAGIC))
        if magic != ARCHIVE_MAGIC:
            raise ValueError(f"bad archive magic {magic!r}")

        def check(n: int) -> None:
            if fh.tell() + n > size:
                raise ValueError("truncated archive")

        def read(n: int) -> bytes:
            check(n)
            return fh.read(n)

        def read_u32() -> int:
            return struct.unpack("<I", read(4))[0]

        while fh.tell() < size:
            name = read(read_u32()).decode("utf-8")
            if name in out:
                raise ValueError(f"duplicate archive entry {name!r}")
            shape = tuple(read_u32() for _ in range(read_u32()))
            tag = read_u32()
            if tag not in _DTYPE_TAGS:
                raise ValueError(f"entry {name!r}: unknown dtype tag {tag}")
            dtype = _DTYPE_TAGS[tag]
            check(math.prod(shape) * dtype.itemsize)
            arr = np.empty(shape, dtype=dtype)
            if fh.readinto(arr) != arr.nbytes:
                raise ValueError("truncated archive")
            if sys.byteorder == "big":
                arr.byteswap(inplace=True)
            out[name] = arr
    return out
