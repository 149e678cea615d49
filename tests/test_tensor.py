import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from handover_ie import tensor as T
from handover_ie.tokenizer import IGNORE_INDEX

from helpers import (
    grad_check,
    reference_layer_norm,
    reference_layer_norm_vjp,
    reference_softmax,
)

def rows(min_cols=2, max_cols=6):
    return st.lists(
        st.lists(st.floats(-50, 50), min_size=min_cols, max_size=max_cols),
        min_size=1, max_size=4,
    ).filter(lambda r: len({len(x) for x in r}) == 1)


def test_softmax_constant_row_is_uniform():
    for k in (1, 2, 5, 9):
        out = T.softmax_rows(T.Tensor(np.full((1, k), 3.25))).data
        assert np.allclose(out, 1.0 / k, atol=1e-12)


def test_softmax_closed_form():
    out = T.softmax_rows(T.Tensor(np.array([[0.0, math.log(2.0)]]))).data
    assert np.allclose(out, [[1 / 3, 2 / 3]], atol=1e-12)


@given(rows())
@settings(max_examples=80)
def test_softmax_rows_sum_to_one(data):
    out = T.softmax_rows(T.Tensor(np.array(data))).data
    assert np.abs(out.sum(axis=-1) - 1.0).max() < 1e-9


@given(rows(), st.floats(-30, 30))
@settings(max_examples=80)
def test_softmax_shift_invariance(data, c):
    x = np.array(data)
    a = T.softmax_rows(T.Tensor(x)).data
    b = T.softmax_rows(T.Tensor(x + c)).data
    assert np.abs(a - b).max() < 1e-9


def test_layer_norm_standardizes_rows():
    rng = np.random.default_rng(0)
    x = T.Tensor(rng.normal(3.0, 2.0, (5, 16)))
    gain = T.Tensor(np.ones(16))
    bias = T.Tensor(np.zeros(16))
    out = T.layer_norm(x, gain, bias).data
    assert np.abs(out.mean(axis=-1)).max() < 1e-6
    assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-6


KERNEL_SHAPES = [(48, 32), (1, 32), (7, 32), (300, 33), (5, 1), (128, 768)]


def kernel_inputs(shape, dtype, offset):
    """Rows, a gain and a bias for one shape; offset shifts every row's
    mean far from its spread."""
    rng = np.random.default_rng(math.prod(shape))
    x = rng.normal(offset, 1.0, shape).astype(dtype)
    gain, bias = (rng.normal(1.0, 0.5, shape[-1]).astype(dtype) for _ in range(2))
    return x, gain, bias, rng.normal(0.0, 1.0, shape).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("offset", [0.0, 1e4])
@pytest.mark.parametrize("shape", KERNEL_SHAPES)
def test_kernels_are_bit_equal_to_numpys_reduction_wrappers(shape, dtype, offset):
    x, gain, bias, g = kernel_inputs(shape, dtype, offset)
    got, want = T._layer_norm(x, gain, bias), reference_layer_norm(x, gain, bias)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == dtype and a.tobytes() == b.tobytes()
    _, xhat, inv = want
    a = T._layer_norm_vjp(g, gain, xhat, inv)
    b = reference_layer_norm_vjp(g, gain, xhat, inv)
    assert a.dtype == dtype and a.tobytes() == b.tobytes()
    scores = x - np.asarray(offset, dtype=dtype)
    a, b = T._softmax(scores), reference_softmax(scores)
    assert a.dtype == dtype and a.tobytes() == b.tobytes()


def test_log_softmax_matches_log_of_softmax():
    rng = np.random.default_rng(1)
    x = rng.normal(0, 3, (4, 7))
    a = T.log_softmax_rows(T.Tensor(x)).data
    b = np.log(T.softmax_rows(T.Tensor(x)).data)
    assert np.abs(a - b).max() < 1e-12


def test_shape_errors_name_both_shapes():
    with pytest.raises(T.ShapeError) as err:
        T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4, 2))))
    assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)
    with pytest.raises(T.ShapeError):
        T.add(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4,))))
    with pytest.raises(T.ShapeError):
        T.layer_norm(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros(4)), T.Tensor(np.zeros(3)))


def test_embedding_range_check():
    table = T.Parameter(np.zeros((3, 2)), "t")
    with pytest.raises(IndexError):
        T.embedding_lookup(table, [0, 3])


def test_masked_nll_requires_unignored_position():
    lp = T.Tensor(np.log(np.full((2, 3), 1 / 3)))
    with pytest.raises(ValueError):
        T.masked_nll(lp, [IGNORE_INDEX, IGNORE_INDEX], IGNORE_INDEX, [2])
    # each window's mean needs a row of its own
    with pytest.raises(ValueError):
        T.masked_nll(lp, [0, IGNORE_INDEX], IGNORE_INDEX, [1, 1])


def test_grad_check_epsilon_validation():
    p = T.Parameter(np.ones(2), "p")
    with pytest.raises(ValueError):
        grad_check(lambda: T.reshape(p, (1, 2)), [p], epsilon=0.5)


def test_grad_check_rejects_nonfinite_value():
    p = T.Parameter(np.array([1.0]), "p")

    def f():
        out = T.reshape(p, (1, 1))
        out.data = np.array([[np.inf]])
        return T.reshape(out, ())

    with pytest.raises(ValueError):
        grad_check(f, [p])


def test_grad_check_linear_is_machine_precision():
    rng = np.random.default_rng(2)
    c = T.Tensor(rng.normal(0, 1, (1, 6)))
    p = T.Parameter(rng.normal(0, 1, (6, 1)), "p")
    err = grad_check(lambda: T.reshape(T.matmul(c, p), ()), [p])
    assert err < 1e-9


def test_grad_check_constant_function_is_zero():
    p = T.Parameter(np.ones(4), "p")
    c = T.Tensor(np.array(2.5))
    err = grad_check(lambda: T.add(c, T.Tensor(np.array(0.0))), [p])
    assert err == 0.0
    assert p.grad is None


def test_grad_check_cross_entropy_softmax_matmul():
    rng = np.random.default_rng(3)
    a = T.Parameter(rng.normal(0, 1, (4, 5)), "a")
    b = T.Parameter(rng.normal(0, 1, (5, 5)), "b")
    labels = [1, 4, 0, 2]

    def f():
        return T.masked_nll(T.log_softmax_rows(T.matmul(a, b)), labels, IGNORE_INDEX, [4])

    assert grad_check(f, [a, b], epsilon=1e-5) < 1e-6


PRIMITIVES = [
    "add", "mul", "scale", "matmul", "batched_matmul", "embedding",
    "softmax", "log_softmax", "layer_norm", "gelu", "dropout",
    "reshape_transpose", "masked_nll", "add_outer",
]


@pytest.mark.parametrize("primitive", PRIMITIVES)
def test_every_primitive_grad_checks_below_1e6(primitive):
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(1000 * PRIMITIVES.index(primitive) + trial)
        worst = max(worst, _primitive_check(primitive, rng))
    assert worst < 1e-6, (primitive, worst)


def _make_readout(size: int, rng):
    # drawn once: grad_check re-evaluates f, which must stay deterministic
    w = T.Tensor(rng.normal(0, 1, (size, 1)))

    def readout(x: T.Tensor) -> T.Tensor:
        return T.reshape(T.matmul(T.reshape(x, (1, x.data.size)), w), ())

    return readout


def _primitive_check(name: str, rng) -> float:
    def par(shape, scale=1.0, pname="p"):
        return T.Parameter(rng.normal(0, scale, shape), pname)

    if name == "add":
        a, b = par((3, 4)), par((4,), pname="q")
        out = _make_readout(12, rng)
        return grad_check(lambda: out(T.add(a, b)), [a, b])
    if name == "mul":
        a, b = par((3, 4)), par((3, 4), pname="q")
        out = _make_readout(12, rng)
        return grad_check(lambda: out(T.mul(a, b)), [a, b])
    if name == "scale":
        a = par((2, 5))
        out = _make_readout(10, rng)
        return grad_check(lambda: out(T.scale(a, -1.7)), [a])
    if name == "matmul":
        a, b = par((3, 4)), par((4, 2), pname="q")
        out = _make_readout(6, rng)
        return grad_check(lambda: out(T.matmul(a, b)), [a, b])
    if name == "batched_matmul":
        a, b = par((2, 3, 4)), par((2, 4, 3), pname="q")
        out = _make_readout(18, rng)
        return grad_check(lambda: out(T.matmul(a, b)), [a, b])
    if name == "embedding":
        tab = par((5, 3))
        ids = rng.integers(0, 5, 6)
        out = _make_readout(18, rng)
        return grad_check(lambda: out(T.embedding_lookup(tab, ids)), [tab])
    if name == "softmax":
        a = par((3, 5))
        out = _make_readout(15, rng)
        return grad_check(lambda: out(T.softmax_rows(a)), [a])
    if name == "log_softmax":
        a = par((3, 5))
        out = _make_readout(15, rng)
        return grad_check(lambda: out(T.log_softmax_rows(a)), [a])
    if name == "layer_norm":
        x, g, b = par((3, 6)), par((6,), 0.5, "g"), par((6,), 0.5, "b")
        g.data += 1.0
        out = _make_readout(18, rng)
        return grad_check(lambda: out(T.layer_norm(x, g, b)), [x, g, b])
    if name == "gelu":
        a = par((4, 4), 1.5)
        out = _make_readout(16, rng)
        return grad_check(lambda: out(T.gelu(a)), [a])
    if name == "dropout":
        a = par((4, 5))
        mask = T.Tensor(T.dropout_mask(a.data, 0.4, rng))
        out = _make_readout(20, rng)
        return grad_check(lambda: out(T.mul(a, mask)), [a])
    if name == "reshape_transpose":
        a = par((2, 3, 4))
        out = _make_readout(24, rng)
        return grad_check(
            lambda: out(T.reshape(T.transpose(a, (2, 0, 1)), (4, 6))), [a]
        )
    if name == "masked_nll":
        a = par((5, 3))
        labels = [0, IGNORE_INDEX, 2, 1, IGNORE_INDEX]
        # two windows, each the mean over its own unignored rows
        return grad_check(
            lambda: T.masked_nll(T.log_softmax_rows(a), labels, IGNORE_INDEX, [2, 3]), [a])
    if name == "add_outer":
        # each operand broadcasts along its own size-1 axis
        a, b = par((3, 1)), par((1, 4), pname="q")
        out = _make_readout(12, rng)
        return grad_check(lambda: out(T.add(a, b)), [a, b])
    raise AssertionError(name)


def test_dropout_mask_properties():
    rng = np.random.default_rng(4)
    mask = T.dropout_mask(np.zeros((200, 50)), 0.25, rng)
    assert set(np.unique(mask)) <= {0.0, 1.0 / 0.75}
    assert abs((mask > 0).mean() - 0.75) < 0.02
    assert np.all(T.dropout_mask(np.zeros((3, 3)), 0.0, rng) == 1.0)
    with pytest.raises(ValueError):
        T.dropout_mask(np.zeros(2), 1.0, rng)


F32_OPS = {
    "add": lambda x, rng: T.add(x, x),
    "mul": lambda x, rng: T.mul(x, x),
    "scale": lambda x, rng: T.scale(x, 0.5),
    "matmul": lambda x, rng: T.matmul(x, T.transpose(x, (1, 0))),
    "embedding_lookup": lambda x, rng: T.embedding_lookup(x, [2, 0]),
    "softmax_rows": lambda x, rng: T.softmax_rows(x),
    "log_softmax_rows": lambda x, rng: T.log_softmax_rows(x),
    "layer_norm": lambda x, rng: T.layer_norm(
        x, T.Tensor(np.ones(4, np.float32)), T.Tensor(np.zeros(4, np.float32))),
    "gelu": lambda x, rng: T.gelu(x),
    "dropout": lambda x, rng: T.mul(x, T.Tensor(T.dropout_mask(x.data, 0.3, rng))),
    "reshape": lambda x, rng: T.reshape(x, (12,)),
    "transpose": lambda x, rng: T.transpose(x, (1, 0)),
    "masked_nll": lambda x, rng: T.masked_nll(T.log_softmax_rows(x), [0, IGNORE_INDEX, 3],
                                              IGNORE_INDEX, [3]),
}


@pytest.mark.parametrize("name", sorted(F32_OPS))
def test_primitives_keep_float32(name):
    rng = np.random.default_rng(5)
    x = T.Parameter(rng.normal(0, 1, (3, 4)).astype(np.float32), "x")
    with T.recording():
        out = F32_OPS[name](x, rng)
        assert out.data.dtype == np.float32
        ones = T.Tensor(np.ones((out.data.size, 1), np.float32))
        T.backward(T.matmul(T.reshape(out, (1, -1)), ones))
    assert x.grad.dtype == np.float32


def test_backward_accumulates_through_shared_nodes():
    p = T.Parameter(np.array([[2.0]]), "p")
    with T.recording():
        shared = T.scale(p, 3.0)
        out = T.add(shared, shared)
        T.backward(T.reshape(out, ()))
    assert p.grad[0, 0] == 6.0


def test_backward_requires_scalar_root():
    p = T.Parameter(np.ones((2, 2)), "p")
    with pytest.raises(T.ShapeError):
        T.backward(T.scale(p, 1.0))


def test_archive_round_trip_bytes(tmp_path):
    rng = np.random.default_rng(5)
    entries = [
        ("embeddings.token", rng.normal(0, 1, (4, 3))),
        ("f32 tensor", rng.normal(0, 1, (2, 2)).astype(np.float32)),
        ("scalarish", np.array([7.5])),
    ]
    first = tmp_path / "a.tarch"
    second = tmp_path / "b.tarch"
    T.save_archive(entries, str(first))
    loaded = T.load_archive(str(first))
    assert [k for k in loaded] == [name for name, _ in entries]
    for (name, arr), (k, v) in zip(entries, loaded.items()):
        assert np.array_equal(arr, v) and arr.dtype == v.dtype
    T.save_archive(list(loaded.items()), str(second))
    assert first.read_bytes() == second.read_bytes()


def test_archive_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.tarch"
    path.write_bytes(b"NOPE!!\n")
    with pytest.raises(ValueError):
        T.load_archive(str(path))


def test_archive_rejects_truncation_and_duplicate_names(tmp_path):
    path = tmp_path / "a.tarch"
    entries = [("first", np.arange(6.0).reshape(2, 3)), ("second", np.ones(2, np.float32))]
    T.save_archive(entries, str(path))
    full = path.read_bytes()
    T.save_archive(entries[:1], str(path))
    boundary = len(path.read_bytes())
    cut_path = tmp_path / "cut.tarch"
    for cut in range(len(full)):
        cut_path.write_bytes(full[:cut])
        if cut in (len(T.ARCHIVE_MAGIC), boundary):
            # an empty or one-entry archive is well formed
            assert len(T.load_archive(str(cut_path))) == (cut == boundary)
            continue
        with pytest.raises(ValueError):
            T.load_archive(str(cut_path))
    T.save_archive([entries[0], entries[0]], str(path))
    with pytest.raises(ValueError, match="duplicate"):
        T.load_archive(str(path))


# float32, float64, empty and 0-d entries, one under a name that is not ASCII
FUZZ_ENTRIES = (("w", np.arange(6.0).reshape(2, 3) - 2.5),
                ("h\u00e9", np.arange(4, dtype=np.float32) / 3),
                ("empty", np.ones((0, 3))), ("scalar", np.array(-0.0)))


@given(st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_archive_reader_rejects_or_round_trips_corrupted_bytes(data):
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp, "a.tarch"), Path(tmp, "b.tarch")
        T.save_archive(FUZZ_ENTRIES, str(path))
        raw = path.read_bytes()
        at = data.draw(st.integers(0, len(raw)), label="offset")
        how = data.draw(st.sampled_from(("cut", "flip", "insert")), label="corruption")
        if how == "flip" and at < len(raw):
            bit = data.draw(st.integers(0, 7), label="bit")
            corrupted = raw[:at] + bytes([raw[at] ^ 1 << bit]) + raw[at + 1:]
        elif how == "insert":
            corrupted = raw[:at] + bytes([data.draw(st.integers(0, 255), label="byte")]) \
                + raw[at:]
        else:
            corrupted = raw[:at]
        path.write_bytes(corrupted)
        try:
            loaded = T.load_archive(str(path))
        except ValueError:
            return
        T.save_archive(loaded.items(), str(again))
        assert again.read_bytes() == corrupted


def test_archive_rejects_unknown_dtype(tmp_path):
    path = tmp_path / "int.tarch"
    with pytest.raises(ValueError):
        T.save_archive([("x", np.arange(3))], str(path))


def test_parameter_gradient_shape_invariant():
    p = T.Parameter(np.zeros((3, 2), np.float32), "w")
    assert p.name == "w"
    with T.recording():
        T.backward(T.reshape(T.matmul(T.Tensor(np.ones((1, 3), np.float32)),
                                      T.matmul(p, T.Tensor(np.ones((2, 1), np.float32)))),
                             ()))
    assert p.grad.shape == p.data.shape and p.grad.dtype == p.data.dtype


def test_archive_loads_writeable_native_arrays_that_own_their_memory(tmp_path):
    path = tmp_path / "a.tarch"
    T.save_archive([("w", np.arange(6.0).reshape(2, 3)),
                    ("h", np.arange(4, dtype=np.float32)),
                    ("empty", np.ones((0, 3))), ("scalar", np.array(2.5))], str(path))
    loaded = T.load_archive(str(path))
    assert [v.dtype for v in loaded.values()] == [np.float64, np.float32, np.float64,
                                                  np.float64]
    for name, arr in loaded.items():
        assert arr.flags.writeable and arr.flags.c_contiguous, name
        assert arr.flags.owndata and arr.base is None, name
        assert arr.dtype.isnative, name


def test_parameter_binds_its_array_without_a_gradient():
    data = np.arange(6.0).reshape(3, 2)
    p = T.Parameter(data, "w")
    assert p.data is data and p.grad is None


def test_grad_exists_only_after_backward_reaches_the_tensor():
    a = T.Parameter(np.array([[1.0, -2.0]]), "a")
    unused = T.Parameter(np.ones(3), "unused")

    def forward():
        hidden = T.scale(a, 3.0)
        return hidden, T.reshape(T.matmul(hidden, T.Tensor(np.array([[0.5], [2.0]]))), ())

    def sweep():
        with T.recording():
            T.backward(forward()[1])

    with T.recording():
        hidden, loss = forward()
        assert [t.grad for t in (a, unused, hidden, loss)] == [None] * 4
        T.backward(loss)
    assert np.array_equal(a.grad, [[1.5, 6.0]]) and np.array_equal(hidden.grad, [[0.5, 2.0]])
    assert unused.grad is None
    # a second graph's sweep adds into the buffer the first one allocated
    buffer = a.grad
    sweep()
    assert a.grad is buffer and np.array_equal(a.grad, [[3.0, 12.0]])
    T.zero_grad([a, unused, hidden, loss])
    assert [t.grad for t in (a, unused, hidden, loss)] == [None] * 4
    sweep()
    assert np.array_equal(a.grad, [[1.5, 6.0]]) and a.grad is not buffer


def test_a_graph_is_swept_once():
    a = T.Parameter(np.array([[1.0, -2.0]]), "a")
    with T.recording():
        hidden = T.scale(a, 3.0)
        loss = T.reshape(T.matmul(hidden, T.Tensor(np.array([[0.5], [2.0]]))), ())
        T.backward(loss)
        once = [a.grad.copy(), hidden.grad.copy()]
        # a second sweep would add the intermediate gradients again
        with pytest.raises(ValueError, match="not on the tape"):
            T.backward(loss)
    with T.recording(), pytest.raises(ValueError, match="not on the tape"):
        T.backward(loss)
    assert np.array_equal(a.grad, once[0]) and np.array_equal(a.grad, [[1.5, 6.0]])
    assert np.array_equal(hidden.grad, once[1])


def test_backward_rejects_a_root_that_was_not_recorded():
    a = T.Parameter(np.array([[1.0, -2.0]]), "a")
    unrecorded = T.reshape(T.matmul(a, T.Tensor(np.ones((2, 1)))), ())
    with pytest.raises(ValueError, match="not on the tape"):
        T.backward(unrecorded)
    with T.recording(), pytest.raises(ValueError, match="not on the tape"):
        T.backward(unrecorded)
    # a root recorded in an earlier block is not on this block's tape
    with T.recording():
        earlier = T.reshape(T.matmul(a, T.Tensor(np.ones((2, 1)))), ())
    with T.recording(), pytest.raises(ValueError, match="not on the tape"):
        T.backward(earlier)
    assert a.grad is None


def test_gradient_takes_the_layout_of_its_tensor():
    # the buffer's layout fixes the order BLAS sums a transposed operand in
    p = T.Parameter(np.arange(12.0).reshape(3, 4), "p")
    with T.recording():
        flipped = T.transpose(p, (1, 0))
        assert not flipped.data.flags.c_contiguous
        out = T.matmul(flipped, T.Tensor(np.ones((3, 2))))
        T.backward(T.reshape(T.matmul(T.Tensor(np.ones((1, 4))),
                                      T.matmul(out, T.Tensor(np.ones((2, 1))))), ()))
    assert flipped.grad.strides == flipped.data.strides
    assert p.grad.strides == p.data.strides
    assert np.array_equal(p.grad, np.full((3, 4), 2.0))


def _graph():
    rng = np.random.default_rng(7)
    a = T.Parameter(rng.normal(0, 1, (3, 4)), "a")
    b = T.Parameter(rng.normal(0, 1, (4, 2)), "b")
    return a, b, lambda: T.masked_nll(T.log_softmax_rows(T.matmul(T.gelu(a), b)),
                                      [0, 1, IGNORE_INDEX], IGNORE_INDEX, [3])


def test_unrecorded_forward_records_nothing():
    a, b, f = _graph()
    with T.recording():
        recorded = f()
        # gelu, matmul, log-softmax, loss
        assert [node for node, _ in T._tape][-1] is recorded and len(T._tape) == 4
    assert T._tape is None
    loss = f()
    assert T._tape is None
    assert loss.data.tobytes() == recorded.data.tobytes()
    with T.recording(), pytest.raises(ValueError):
        T.backward(loss)
    assert a.grad is None and b.grad is None


def test_recording_restores_the_outer_state_after_an_exception():
    a, b, f = _graph()
    with T.recording():
        T.backward(f())
    want = [a.grad.copy(), b.grad.copy()]
    T.zero_grad([a, b])
    with pytest.raises(RuntimeError, match="inside"):
        with T.recording():
            f()
            raise RuntimeError("inside")
    assert T._tape is None
    with T.recording():
        loss = f()
        tape = T._tape
        with pytest.raises(RuntimeError, match="inside"):
            with T.recording():
                inner = T.scale(a, 2.0)
                raise RuntimeError("inside")
        # the inner block recorded onto the outer tape and left it in place
        assert T._tape is tape and len(tape) == 5 and tape[-1][0] is inner
        T.backward(loss)
    assert T._tape is None
    assert np.array_equal(a.grad, want[0]) and np.array_equal(b.grad, want[1])
    assert want[0].any() and want[1].any()

