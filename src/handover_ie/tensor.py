"""Dense tensors with exact reverse-mode gradients for a fixed primitive set.

Every differentiable primitive records a vector-Jacobian closure so that
``backward`` on a scalar fills exact gradients for all reachable leaves;
inside ``no_grad()`` none is recorded. A tensor's ``grad`` is None until
backward first reaches it, and ``zero_grad`` sets it back to None.
float64 is the default precision; float32 is accepted and preserved.
Also home to the bit-exact tensor archive used for checkpoints.
"""
from __future__ import annotations

import math
import os
import struct
import sys
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
from scipy.special import erf

LAYER_NORM_EPS = 1e-12


class ShapeError(ValueError):
    pass


class TrainingDivergence(RuntimeError):
    """Loss became non-finite during optimization."""


def _shape_error(op: str, a, b) -> ShapeError:
    return ShapeError(f"{op}: incompatible shapes {tuple(np.shape(a))} and {tuple(np.shape(b))}")


class Tensor:
    """A dense array node in the gradient tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, grad={'set' if self.grad is not None else 'none'})"


class Parameter(Tensor):
    """Named trainable leaf. It binds the float array it is given without
    copying it."""

    __slots__ = ("name",)

    def __init__(self, data, name: str):
        super().__init__(data, requires_grad=True)
        self.name = name


_recording = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Record no tape inside the block: results keep no parents and no
    vector-Jacobian closure, so a forward holds only what it still uses."""
    global _recording
    saved, _recording = _recording, False
    try:
        yield
    finally:
        _recording = saved


def _result(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor(data)
    if _recording and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    return out


def _accum(t: Tensor, g: np.ndarray, rows: np.ndarray | None = None) -> None:
    """Add g into t.grad, or scatter-add it into the given rows of t.grad.

    The only place a gradient buffer is made: the first contribution
    allocates it in t.data's layout. BLAS sums a transposed operand in
    another order, so a buffer in any other layout changes the last bits
    of the weights a training run ends with.
    """
    if not t.requires_grad:
        return
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
    """Reverse-mode sweep from a scalar root; accumulates into .grad."""
    if root.data.size != 1:
        raise ShapeError(f"backward root must be scalar, got shape {root.data.shape}")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    _accum(root, np.full_like(root.data, seed))
    for node in reversed(topo):
        if node._vjp is not None and node.grad is not None:
            node._vjp(node.grad)


def zero_grad(tensors: Iterable[Tensor]) -> None:
    """Drop the gradients: each is None until backward reaches its tensor again."""
    for t in tensors:
        t.grad = None


# --- primitives ---------------------------------------------------------------

def constant(data) -> Tensor:
    return Tensor(data)


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError:
        raise _shape_error("add", a.data, b.data) from None

    def vjp(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _result(data, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError:
        raise _shape_error("mul", a.data, b.data) from None

    def vjp(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _result(data, (a, b), vjp)


def scale(a: Tensor, c: float) -> Tensor:
    def vjp(g):
        _accum(a, g * c)

    return _result(a.data * c, (a,), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D or equal-batch stacked matrix product."""
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2] \
            or a.data.shape[:-2] != b.data.shape[:-2]:
        raise _shape_error("matmul", a.data, b.data)
    data = a.data @ b.data

    def vjp(g):
        _accum(a, g @ b.data.swapaxes(-1, -2))
        _accum(b, a.data.swapaxes(-1, -2) @ g)

    return _result(data, (a, b), vjp)


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

    return _result(data, (table,), vjp)


def softmax_rows(x: Tensor) -> Tensor:
    """Numerically stable softmax along the last axis."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        _accum(x, y * (g - inner))

    return _result(y, (x,), vjp)


def log_softmax_rows(x: Tensor) -> Tensor:
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    y = shifted - lse

    def vjp(g):
        _accum(x, g - np.exp(y) * g.sum(axis=-1, keepdims=True))

    return _result(y, (x,), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    h = x.data.shape[-1]
    if gain.data.shape != (h,) or bias.data.shape != (h,):
        raise _shape_error("layer_norm", x.data, gain.data)
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = (x.data - mean) * inv
    data = xhat * gain.data + bias.data

    def vjp(g):
        _accum(gain, _unbroadcast(g * xhat, gain.data.shape))
        _accum(bias, _unbroadcast(g, bias.data.shape))
        if x.requires_grad:
            gx = g * gain.data
            m1 = gx.mean(axis=-1, keepdims=True)
            m2 = (gx * xhat).mean(axis=-1, keepdims=True)
            _accum(x, inv * (gx - m1 - xhat * m2))

    return _result(data, (x, gain, bias), vjp)


# Python floats, so float32 inputs are not promoted
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) Gaussian error linear unit."""
    cdf = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))
    data = x.data * cdf

    def vjp(g):
        pdf = _INV_SQRT2PI * np.exp(-0.5 * x.data * x.data)
        _accum(x, g * (cdf + x.data * pdf))

    return _result(data, (x,), vjp)


def dropout_mask(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted-dropout mask shaped and typed like x: 0 or 1/(1-rate), from rng."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return Tensor(np.ones_like(x.data))
    keep = rng.random(x.shape) >= rate
    return Tensor(keep.astype(x.data.dtype) / (1.0 - rate))


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = x.data.shape
    data = x.data.reshape(shape)

    def vjp(g):
        _accum(x, g.reshape(old))

    return _result(data, (x,), vjp)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    inverse = tuple(np.argsort(axes))

    def vjp(g):
        _accum(x, g.transpose(inverse))

    return _result(x.data.transpose(axes), (x,), vjp)


def masked_nll(log_probs: Tensor, labels: Sequence[int], ignore_index: int) -> Tensor:
    """Mean negative log-probability of gold labels over non-ignored rows."""
    labs = np.asarray(labels, dtype=np.int64)
    if log_probs.data.ndim != 2 or labs.shape != (log_probs.data.shape[0],):
        raise _shape_error("masked_nll", log_probs.data, labs)
    rows = np.nonzero(labs != ignore_index)[0]
    if rows.size == 0:
        raise ValueError("all positions ignored; loss undefined")
    gold = labs[rows]
    if gold.min() < 0 or gold.max() >= log_probs.data.shape[1]:
        raise IndexError(f"label id out of range [0, {log_probs.data.shape[1]})")
    data = np.asarray(-log_probs.data[rows, gold].mean())

    def vjp(g):
        if log_probs.requires_grad:
            gl = np.zeros_like(log_probs.data)
            gl[rows, gold] = -float(g) / rows.size
            _accum(log_probs, gl)

    return _result(data, (log_probs,), vjp)


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
