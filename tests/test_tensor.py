import os
import struct
import threading
import warnings
import zlib

import numpy as np
import pytest

from safa import tensor as T
from safa.tensor import (
    DeterminismError,
    NumericError,
    ShapeError,
    Tape,
    TapeStateError,
    Tensor,
    check_gradients,
    load_checkpoint,
    save_checkpoint,
)


def test_softmax_symmetry():
    out = T.softmax(Tensor([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 5))
    out = T.matmul(Tensor(np.eye(3)), Tensor(a))
    np.testing.assert_array_equal(out.data, a)


def test_sigmoid_at_zero():
    assert T.sigmoid(Tensor([0.0])).data[0] == 0.5


def test_softmax_rows_are_distributions():
    rng = np.random.default_rng(1)
    x = rng.normal(scale=5.0, size=(4, 7))
    s = T.softmax(Tensor(x)).data
    assert (s >= 0).all()
    np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-12)


def test_backward_sum_gives_ones():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    with Tape() as tape:
        loss = T.reduce_sum(x)
        tape.backward(loss)
    np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_square():
    x = Tensor([3.0], requires_grad=True)
    with Tape() as tape:
        loss = T.reduce_sum(T.mul(x, x))
        tape.backward(loss)
    np.testing.assert_allclose(x.grad, [6.0])


def test_backward_twice_raises():
    x = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        loss = T.reduce_sum(x)
        tape.backward(loss)
        with pytest.raises(TapeStateError):
            tape.backward(loss)


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = T.mul(x, x)
        with pytest.raises(ShapeError):
            tape.backward(y)


def test_unreachable_parameter_gets_zero_grad():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = Tensor([5.0], requires_grad=True)
    with Tape() as tape:
        _dead = T.mul(y, y)
        loss = T.reduce_sum(x)
        tape.backward(loss)
    np.testing.assert_array_equal(y.grad, [0.0])


def test_backward_keeps_only_leaf_gradients():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        dead = T.scale(x, 3.0)
        h = T.mul(x, x)
        loss = T.reduce_sum(h)
        tape.backward(loss)
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])
    # intermediate gradients are released once consumed; unreachable ones are never filled
    assert h.grad is None and loss.grad is None and dead.grad is None


def test_shape_error_names_primitive():
    with pytest.raises(ShapeError, match="matmul"):
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_non_finite_output_rejected():
    with pytest.raises(NumericError, match="log"):
        T.log(Tensor([0.0]))


def test_log_floor_avoids_infinity():
    out = T.log(Tensor([0.0, 1.0]), floor=1e-12)
    np.testing.assert_allclose(out.data, [np.log(1e-12), 0.0])


def test_dropout_rate_zero_is_identity():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    assert T.dropout(x, 0.0, None) is x


def test_dropout_scales_kept_entries():
    x = Tensor(np.ones((2, 4)), requires_grad=True)
    mask = np.array([[True, False, True, True], [False, True, True, False]])
    with Tape() as tape:
        y = T.dropout(x, 0.5, mask)
        tape.backward(T.reduce_sum(y))
    np.testing.assert_array_equal(y.data, mask * 2.0)
    np.testing.assert_array_equal(x.grad, mask * 2.0)


# ---------------------------------------------------------------------------
# Finite-difference checks, per primitive, 100 random inputs each
# ---------------------------------------------------------------------------


def _fd_case(name, rng):
    """Build (fn over params, params) exercising one primitive."""
    if name in ("add", "sub", "mul"):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)  # broadcast path
        op = getattr(T, name)
        return lambda p: T.reduce_sum(T.mul(op(p["a"], p["b"]), Tensor(rng_fixed(name)))), {"a": a, "b": b}
    if name == "scale":
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        return lambda p: T.reduce_sum(T.scale(p["a"], 1.7)), {"a": a}
    if name == "matmul":
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        return lambda p: T.reduce_sum(T.mul(T.matmul(p["a"], p["b"]), Tensor(rng_fixed(name, (2, 3, 2))))), {"a": a, "b": b}
    if name == "transpose":
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        return lambda p: T.reduce_sum(T.mul(T.transpose(p["a"], (2, 0, 1)), Tensor(rng_fixed(name, (4, 2, 3))))), {"a": a}
    if name == "softmax":
        a = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        return lambda p: T.reduce_sum(T.mul(T.softmax(p["a"]), Tensor(rng_fixed(name, (2, 5))))), {"a": a}
    if name == "log_softmax":
        a = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        return lambda p: T.reduce_sum(T.mul(T.log_softmax(p["a"]), Tensor(rng_fixed(name, (2, 5))))), {"a": a}
    if name == "log":
        a = Tensor(rng.random(size=(2, 4)) + 0.5, requires_grad=True)
        return lambda p: T.reduce_sum(T.log(p["a"], floor=1e-12)), {"a": a}
    if name == "sigmoid":
        a = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        return lambda p: T.reduce_sum(T.mul(T.sigmoid(p["a"]), Tensor(rng_fixed(name, (3, 3))))), {"a": a}
    if name == "relu":
        a = Tensor(rng.normal(size=(3, 3)) + 0.05, requires_grad=True)  # keep away from the kink
        return lambda p: T.reduce_sum(T.mul(T.relu(p["a"]), Tensor(rng_fixed(name, (3, 3))))), {"a": a}
    if name == "layer_norm":
        a = Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True)
        gain = Tensor(rng.normal(size=(6,)), requires_grad=True)
        bias = Tensor(rng.normal(size=(6,)), requires_grad=True)
        return lambda p: T.reduce_sum(T.mul(T.layer_norm(p["a"], p["g"], p["b"]), Tensor(rng_fixed(name, (2, 3, 6))))), {"a": a, "g": gain, "b": bias}
    if name == "linear":
        return _linear_case(rng, (2, 3, 4))
    if name == "attention":
        # the second batch row's last two keys are padding; the first row's
        # last query sees no key, so its weights are uniform and its scores get no gradient
        blocked = np.zeros((2, 3, 4), dtype=bool)
        blocked[1, :, 2:] = True
        blocked[0, 2, :] = True
        return _attention_case(rng, name, (2, 3, 4), (2, 4, 4), blocked)
    if name == "attention-causal":
        return _attention_case(rng, name, (2, 3, 4), (2, 3, 4), np.triu(np.ones((3, 3), dtype=bool), k=1))
    if name == "attention-cached-step":
        # one new query position against a 5-key decoder cache, nothing blocked
        return _attention_case(rng, name, (2, 1, 4), (2, 5, 4), None)
    if name == "linear-2d":
        return _linear_case(rng, (5, 4))
    if name == "embedding":
        table = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        ids = rng.integers(0, 5, size=(2, 4))
        return lambda p: T.reduce_sum(T.mul(T.embedding(p["t"], ids), Tensor(rng_fixed(name, (2, 4, 3))))), {"t": table}
    if name == "take_index":
        a = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        ids = rng.integers(0, 5, size=(3,))
        return lambda p: T.reduce_sum(T.mul(T.take_index(p["a"], ids), Tensor(rng_fixed(name, (3,))))), {"a": a}
    if name == "dropout":
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        mask = rng.random(size=(3, 4)) > 0.4
        return lambda p: T.reduce_sum(T.mul(T.dropout(p["a"], 0.4, mask), Tensor(rng_fixed(name, (3, 4))))), {"a": a}
    if name == "reduce_sum":
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        return lambda p: T.reduce_sum(T.mul(T.reduce_sum(p["a"], axis=1), Tensor(rng_fixed(name, (2, 4))))), {"a": a}
    if name == "reduce_mean":
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        return lambda p: T.reduce_sum(T.mul(T.reduce_mean(p["a"], axis=-1), Tensor(rng_fixed(name, (2, 3))))), {"a": a}
    raise AssertionError(f"no finite-difference case for primitive {name!r}")


def _linear_case(rng, shape):
    x = Tensor(rng.normal(size=shape), requires_grad=True)
    w = Tensor(rng.normal(size=(shape[-1], 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(3,)), requires_grad=True)
    cotangent = rng_fixed(f"linear{shape}", shape[:-1] + (3,))
    return lambda p: T.reduce_sum(T.mul(T.linear(p["x"], p["w"], p["b"]), Tensor(cotangent))), {"x": x, "w": w, "b": b}


def _attention_case(rng, key, q_shape, kv_shape, blocked):
    params = {
        "q": Tensor(rng.normal(size=q_shape), requires_grad=True),
        "k": Tensor(rng.normal(size=kv_shape), requires_grad=True),
        "v": Tensor(rng.normal(size=kv_shape), requires_grad=True),
    }
    cotangent = rng_fixed(key, q_shape)
    return lambda p: T.reduce_sum(T.mul(T.attention(p["q"], p["k"], p["v"], 2, blocked), Tensor(cotangent))), params


_FIXED = {}


def rng_fixed(name, shape=(2, 3)):
    """Deterministic per-case cotangent so fn stays a fixed function of params.

    Seeded from a CRC of the key: ``hash`` of a string is salted per
    process, so it would draw different cotangents on every run.
    """
    key = (name, shape)
    if key not in _FIXED:
        _FIXED[key] = np.random.default_rng(zlib.crc32(repr(key).encode())).normal(size=shape)
    return _FIXED[key]


PRIMITIVE_NAMES = (
    "add", "attention", "dropout", "embedding", "layer_norm", "linear", "log", "log_softmax",
    "matmul", "mul", "reduce_mean", "reduce_sum", "relu", "scale", "sigmoid", "softmax",
    "sub", "take_index", "transpose",
)
# further cases of the fused primitives
FUSED_VARIANTS = ("attention-cached-step", "attention-causal", "linear-2d")


@pytest.mark.parametrize("name", PRIMITIVE_NAMES + FUSED_VARIANTS)
def test_primitive_gradients_match_central_differences(name):
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        fn, params = _fd_case(name, rng)
        worst = max(worst, check_gradients(fn, params, epsilon=1e-4))
    assert worst < 1e-4, f"{name}: max relative error {worst}"


def test_attention_nan_input_names_attention():
    q = np.ones((1, 2, 4))
    q[0, 1, 3] = np.nan
    with pytest.raises(NumericError, match="attention"):
        T.attention(Tensor(q), Tensor(np.ones((1, 3, 4))), Tensor(np.ones((1, 3, 4))), 2)


def test_finite_output_with_overflowing_squares_passes_silently():
    # the squares overflow the fast sum-of-squares test; the element-wise fallback accepts them
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = T.scale(Tensor(np.full((2, 3), 1e200)), -1.0)
    assert (out.data == -1e200).all()


# (primitive, left shape, right shape, left operand is a transposed view)
_SHAPE_CASES = [
    ("matmul", (2, 2, 3, 4), (2, 2, 4, 3), False),  # batched on both sides
    ("matmul", (3, 4), (2, 4, 5), False),           # left gradient summed over the batch
    ("matmul", (2, 4, 3), (4, 5), True),            # non-contiguous left operand
    ("add", (2, 3), (1, 3), False),
    ("add", (2, 3), (2, 1), False),
    ("add", (2, 1, 3), (3,), False),
    ("mul", (2, 3), (1, 3), False),
    ("mul", (2, 3), (2, 1), False),
    ("mul", (2, 1, 3), (3,), False),
]


@pytest.mark.parametrize(
    "name,shape_a,shape_b,transposed", _SHAPE_CASES,
    ids=[f"{n}-{a}-{b}{'-transposed' if t else ''}" for n, a, b, t in _SHAPE_CASES],
)
def test_broadcast_and_batched_gradients_match_central_differences(name, shape_a, shape_b, transposed):
    op = getattr(T, name)
    key = f"{name}{shape_a}{shape_b}{transposed}"

    def fn(p):
        a = T.transpose(p["a"]) if transposed else p["a"]
        out = op(a, p["b"])
        return T.reduce_sum(T.mul(out, Tensor(rng_fixed(key, out.shape))))

    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        params = {
            "a": Tensor(rng.normal(size=shape_a), requires_grad=True),
            "b": Tensor(rng.normal(size=shape_b), requires_grad=True),
        }
        worst = max(worst, check_gradients(fn, params, epsilon=1e-4))
    assert worst < 1e-4, f"{key}: max relative error {worst}"


def test_matmul_constant_operand_keeps_no_grad():
    rng = np.random.default_rng(5)
    x, w, cotangent = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5)), rng.normal(size=(2, 3, 5))

    def grads(x_requires_grad, w_requires_grad):
        a, b = Tensor(x, x_requires_grad), Tensor(w, w_requires_grad)
        with Tape() as tape:
            tape.backward(T.reduce_sum(T.mul(T.matmul(a, b), Tensor(cotangent))))
        return a.grad, b.grad

    ga, gb = grads(True, True)
    const_x, only_w = grads(False, True)
    only_x, const_w = grads(True, False)
    assert const_x is None and const_w is None
    np.testing.assert_array_equal(only_w, gb)
    np.testing.assert_array_equal(only_x, ga)


def test_check_gradients_square():
    params = {"x": Tensor([3.0], requires_grad=True)}
    err = check_gradients(lambda p: T.reduce_sum(T.mul(p["x"], p["x"])), params, epsilon=1e-4)
    assert err < 1e-8


def test_check_gradients_softmax_nll_matches_closed_form():
    rng = np.random.default_rng(42)
    logits = Tensor(rng.normal(size=(6,)), requires_grad=True)
    target = 2

    def nll(p):
        return T.scale(T.take_index(T.log_softmax(p["logits"]), np.array(target)), -1.0)

    err = check_gradients(nll, {"logits": logits}, epsilon=1e-4)
    assert err < 1e-6
    # closed form: softmax(logits) - onehot(target)
    with Tape() as tape:
        logits.grad = None
        tape.backward(nll({"logits": logits}))
    probs = np.exp(logits.data - np.logaddexp.reduce(logits.data))
    expected = probs.copy()
    expected[target] -= 1.0
    np.testing.assert_allclose(logits.grad, expected, atol=1e-12)


def test_check_gradients_rejects_nondeterminism():
    state = {"calls": 0}

    def fn(p):
        state["calls"] += 1
        return T.scale(p["x"], float(state["calls"]))

    with pytest.raises(DeterminismError):
        check_gradients(fn, {"x": Tensor([1.0], requires_grad=True)})


def test_tapes_are_thread_local():
    import threading

    errors = []

    def worker(seed):
        try:
            rng = np.random.default_rng(seed)
            for _ in range(50):
                x = Tensor(rng.normal(size=(4,)), requires_grad=True)
                with Tape() as tape:
                    loss = T.reduce_sum(T.mul(x, x))
                    tape.backward(loss)
                np.testing.assert_allclose(x.grad, 2 * x.data, atol=1e-12)
        except Exception as exc:  # noqa: BLE001 - surfaced via the main thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []


# ---------------------------------------------------------------------------
# Checkpoint format
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    named = {
        "weights/layer0": rng.normal(size=(4, 7)),
        "bias": rng.normal(size=(7,)),
        "scalar": np.float64(np.pi),
        "unicode-名前": rng.normal(size=(2, 2, 2)),
    }
    path = tmp_path / "params.safa"
    save_checkpoint(path, named)
    loaded = load_checkpoint(path)
    assert list(loaded) == list(named)
    for k in named:
        arr = np.asarray(named[k], dtype=np.float64)
        assert loaded[k].shape == arr.shape
        assert loaded[k].tobytes() == arr.tobytes()


def test_checkpoint_magic_and_version(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(T.CheckpointError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_truncation_detected(tmp_path):
    path = tmp_path / "p.safa"
    save_checkpoint(path, {"w": np.ones((3, 3))})
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(T.CheckpointError, match="truncated"):
        load_checkpoint(path)


@pytest.mark.parametrize("size", [6, 9, 11])
def test_checkpoint_truncated_header_names_file(tmp_path, size):
    # 6: inside the version field; 9: inside an entry's name length; 11: inside its name
    path = tmp_path / "p.safa"
    save_checkpoint(path, {"w": np.ones((3, 3))})
    path.write_bytes(path.read_bytes()[:size])
    with pytest.raises(T.CheckpointError, match="truncated") as exc:
        load_checkpoint(path)
    assert str(path) in str(exc.value)


def test_checkpoint_dims_overflowing_int64_names_file(tmp_path):
    # 2**32 * 2**32 values wrap to 0 in int64; the size check must see 2**67 bytes
    path = tmp_path / "huge.safa"
    path.write_bytes(
        b"SAFA" + struct.pack("<I", 1) + struct.pack("<H", 1) + b"w" + struct.pack("<B", 2)
        + struct.pack("<2Q", 2**32, 2**32) + bytes(16)
    )
    with pytest.raises(T.CheckpointError, match="truncated values") as exc:
        load_checkpoint(path)
    assert str(path) in str(exc.value)


def test_checkpoint_name_not_utf8_names_file(tmp_path):
    path = tmp_path / "p.safa"
    path.write_bytes(b"SAFA" + struct.pack("<I", 1) + struct.pack("<H", 1) + b"\xff")
    with pytest.raises(T.CheckpointError, match="UTF-8") as exc:
        load_checkpoint(path)
    assert str(path) in str(exc.value)


def _load_through_fifo(tmp_path, data, load):
    # the writer fills the pipe buffer and closes, so the reader sees end of input
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()
    try:
        return load(fifo)
    finally:
        writer.join(timeout=10)


def test_checkpoint_loads_from_pipe(tmp_path):
    path = tmp_path / "p.safa"
    save_checkpoint(path, {"w": np.arange(6.0).reshape(2, 3), "b": np.ones(3)})
    loaded = _load_through_fifo(tmp_path, path.read_bytes(), load_checkpoint)
    assert list(loaded) == ["w", "b"]
    np.testing.assert_array_equal(loaded["w"], np.arange(6.0).reshape(2, 3))


def test_checkpoint_pipe_with_absurd_dims_names_file(tmp_path):
    # a pipe has no size to check against: the values are read in bounded chunks
    data = (
        b"SAFA" + struct.pack("<I", 1) + struct.pack("<H", 1) + b"w" + struct.pack("<B", 2)
        + struct.pack("<2Q", 2**32, 2**32) + bytes(16)
    )
    with pytest.raises(T.CheckpointError, match="truncated values") as exc:
        _load_through_fifo(tmp_path, data, load_checkpoint)
    assert "pipe" in str(exc.value)
