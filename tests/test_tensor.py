import inspect
import math
import os
import re
import struct
import threading
import warnings
import zlib
from pathlib import Path

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


def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 5))
    out = T.matmul(Tensor(np.eye(3)), Tensor(a))
    np.testing.assert_array_equal(out.data, a)


def test_sigmoid_at_zero():
    assert T.sigmoid(Tensor([0.0])).data[0] == 0.5


def test_sigmoid_is_bit_identical_to_the_masked_formula():
    rng = np.random.default_rng(3)
    x = np.concatenate([
        rng.standard_normal(100_000) * rng.choice([1e-3, 1.0, 30.0, 800.0], size=100_000),
        [0.0, -0.0, 750.0, -750.0, 1e300, -1e300, 5e-324, -5e-324],
    ])
    pos = x >= 0
    expected = np.empty_like(x)
    expected[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    expected[~pos] = e / (1.0 + e)
    assert T.sigmoid(Tensor(x)).data.tobytes() == expected.tobytes()


def _product(x, y):
    """``x * y`` of two tensors of one shape, as ``lerp(0, x, y)``."""
    return T.lerp(np.zeros(x.shape), x, y)


def _total(x):
    return T.weighted_sum(x, np.ones(x.shape))


def test_backward_sum_gives_ones():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    with Tape() as tape:
        loss = _total(x)
        tape.backward(loss)
    np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_square():
    x = Tensor([3.0], requires_grad=True)
    with Tape() as tape:
        loss = _total(_product(x, x))
        tape.backward(loss)
    np.testing.assert_allclose(x.grad, [6.0])


def test_zero_d_leaf_gradient_is_an_array():
    # the product of two 0-d arrays is a numpy scalar; the adopted gradient must not be
    x, y = Tensor(np.array(3.0), requires_grad=True), Tensor(np.array(2.0), requires_grad=True)
    with Tape() as tape:
        tape.backward(_product(x, y))
    assert type(x.grad) is np.ndarray and x.grad.shape == () and x.grad == 2.0


def test_backward_twice_raises():
    x = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        loss = _total(x)
        tape.backward(loss)
        with pytest.raises(TapeStateError):
            tape.backward(loss)


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = T.add(x, x)
        with pytest.raises(ShapeError):
            tape.backward(y)


def test_unreachable_parameter_keeps_no_grad():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = Tensor([5.0], requires_grad=True)
    with Tape() as tape:
        _dead = T.add(y, y)
        loss = _total(x)
        tape.backward(loss)
    assert y.grad is None


def test_backward_keeps_only_leaf_gradients():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        dead = T.scale(x, 3.0)
        h = _product(x, x)
        loss = _total(h)
        tape.backward(loss)
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])
    # intermediate gradients are released once consumed; unreachable ones are never filled
    assert h.grad is None and loss.grad is None and dead.grad is None


def test_shape_error_names_primitive():
    with pytest.raises(ShapeError, match="matmul"):
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_non_finite_output_rejected():
    with pytest.raises(NumericError, match="scale"):
        T.scale(Tensor([1.0, np.nan]), 2.0)


def test_dropout_rate_zero_is_identity():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    assert T.dropout(x, 0.0, None) is x


def test_dropout_scales_kept_entries():
    x = Tensor(np.ones((2, 4)), requires_grad=True)
    mask = np.array([[True, False, True, True], [False, True, True, False]])
    with Tape() as tape:
        y = T.dropout(x, 0.5, mask)
        tape.backward(_total(y))
    np.testing.assert_array_equal(y.data, mask * 2.0)
    np.testing.assert_array_equal(x.grad, mask * 2.0)


# ---------------------------------------------------------------------------
# Finite-difference checks, per primitive, 100 random inputs each
# ---------------------------------------------------------------------------


def _fd_case(name, rng):
    """Build (fn over params, params) exercising one primitive."""
    if name == "add":
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        return lambda p: T.weighted_sum(T.add(p["a"], p["b"]), rng_fixed(name)), {"a": a, "b": b}
    if name == "lerp":
        params = {k: Tensor(rng.normal(size=(2, 3)), requires_grad=True) for k in ("a", "b", "t")}
        return lambda p: T.weighted_sum(T.lerp(p["a"], p["b"], p["t"]), rng_fixed(name)), params
    if name == "scale":
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        return lambda p: T.weighted_sum(T.scale(p["a"], 1.7), rng_fixed(name)), {"a": a}
    if name == "matmul":
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 4, 2)), requires_grad=True)
        return lambda p: T.weighted_sum(T.matmul(p["a"], p["b"]), rng_fixed(name, (2, 3, 2))), {"a": a, "b": b}
    if name == "attention_weights":
        q = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        k = Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True)
        return lambda p: T.weighted_sum(T.attention_weights(p["q"], p["k"]), rng_fixed(name, (2, 3, 5))), {"q": q, "k": k}
    if name.startswith("smoothed_cross_entropy"):
        smoothing = 0.0 if name.endswith("-unsmoothed") else 0.1
        a = Tensor(rng.normal(size=(2, 4, 5)), requires_grad=True)
        ids = rng.integers(0, 5, size=(2, 4))
        keep = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 0.0, 0.0]])  # the second row ends in padding
        ids[keep == 0] = 0  # the padding id
        weights = keep * rng_fixed(name, (2, 4))
        return lambda p: T.weighted_sum(T.smoothed_cross_entropy(p["a"], ids, smoothing), weights), {"a": a}
    if name == "kl_divergence":
        # well above the floor: a central difference cannot cross it
        a = Tensor(rng.random(size=(2, 3, 4)) + 0.5, requires_grad=True)
        target = rng.random(size=4) + 0.1
        target /= target.sum()
        return lambda p: T.weighted_sum(T.kl_divergence(p["a"], target), rng_fixed(name)), {"a": a}
    if name == "sigmoid":
        a = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        return lambda p: T.weighted_sum(T.sigmoid(p["a"]), rng_fixed(name, (3, 3))), {"a": a}
    if name == "relu":
        a = Tensor(rng.normal(size=(3, 3)) + 0.05, requires_grad=True)  # keep away from the kink
        return lambda p: T.weighted_sum(T.relu(p["a"]), rng_fixed(name, (3, 3))), {"a": a}
    if name.startswith("residual_norm"):
        params = {k: Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True) for k in ("x", "s")}
        params.update({k: Tensor(rng.normal(size=(6,)), requires_grad=True) for k in ("g", "b")})
        if name.endswith("-reused"):
            # x also feeds the sublayer: x adopts the sum's gradient, so the sublayer
            # needs its own copy before add's backward writes into x's
            return lambda p: T.weighted_sum(T.residual_norm(p["x"], T.add(p["x"], p["s"]), p["g"], p["b"]),
                                            rng_fixed(name, (2, 3, 6))), params
        return lambda p: T.weighted_sum(T.residual_norm(p["x"], p["s"], p["g"], p["b"]),
                                        rng_fixed(name, (2, 3, 6))), params
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
    if name == "linear-nobias":
        return _linear_case(rng, (2, 3, 4), bias=False)
    if name == "embedding":
        table = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        ids = rng.integers(0, 5, size=(2, 4))
        return lambda p: T.weighted_sum(T.embedding(p["t"], ids), rng_fixed(name, (2, 4, 3))), {"t": table}
    if name == "embedding-scaled":
        # the encoder's and decoder's input: scaled rows plus a constant position table
        table = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        ids = rng.integers(0, 5, size=(2, 4))
        positions = rng.normal(size=(4, 3))
        return lambda p: T.weighted_sum(T.embedding(p["t"], ids, 1.7, positions),
                                        rng_fixed(name, (2, 4, 3))), {"t": table}
    if name == "dropout":
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        mask = rng.random(size=(3, 4)) > 0.4
        return lambda p: T.weighted_sum(T.dropout(p["a"], 0.4, mask), rng_fixed(name, (3, 4))), {"a": a}
    if name == "weighted_sum":
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        return lambda p: T.weighted_sum(p["a"], rng_fixed(name, (2, 3, 4))), {"a": a}
    if name == "weighted_sum-axis":
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        return lambda p: T.weighted_sum(T.weighted_sum(p["a"], rng_fixed(name, (2, 3, 4)), axis=1),
                                        rng_fixed(name, (2, 4))), {"a": a}
    raise AssertionError(f"no finite-difference case for primitive {name!r}")


def _linear_case(rng, shape, bias=True):
    params = {
        "x": Tensor(rng.normal(size=shape), requires_grad=True),
        "w": Tensor(rng.normal(size=(shape[-1], 3)), requires_grad=True),
    }
    if bias:
        params["b"] = Tensor(rng.normal(size=(3,)), requires_grad=True)
    cotangent = rng_fixed(f"linear{shape}", shape[:-1] + (3,))
    return lambda p: T.weighted_sum(T.linear(p["x"], p["w"], p.get("b")), cotangent), params


def _attention_case(rng, key, q_shape, kv_shape, blocked):
    params = {
        "q": Tensor(rng.normal(size=q_shape), requires_grad=True),
        "k": Tensor(rng.normal(size=kv_shape), requires_grad=True),
        "v": Tensor(rng.normal(size=kv_shape), requires_grad=True),
    }
    cotangent = rng_fixed(key, q_shape)
    return lambda p: T.weighted_sum(T.attention(p["q"], p["k"], p["v"], 2, blocked), cotangent), params


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
    "add", "attention", "attention_weights", "dropout", "embedding", "kl_divergence", "lerp",
    "linear", "matmul", "relu", "residual_norm", "scale", "sigmoid", "smoothed_cross_entropy", "weighted_sum",
)
# further cases of the fused primitives
FUSED_VARIANTS = (
    "attention-cached-step", "attention-causal", "embedding-scaled", "linear-2d", "linear-nobias",
    "residual_norm-reused",
    "smoothed_cross_entropy-unsmoothed", "weighted_sum-axis",
)


@pytest.mark.parametrize("name", PRIMITIVE_NAMES + FUSED_VARIANTS)
def test_primitive_gradients_match_central_differences(name):
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        fn, params = _fd_case(name, rng)
        worst = np.maximum(worst, check_gradients(fn, params))
    assert worst < 1e-4, f"{name}: max relative error {worst}"


def _recorded_primitives():
    # a public function that records through _finish is a primitive
    return {
        name for name, fn in vars(T).items()
        if inspect.isfunction(fn) and fn.__module__ == T.__name__ and not name.startswith("_")
        and "_finish" in fn.__code__.co_names
    }


def test_every_primitive_has_a_finite_difference_case():
    assert _recorded_primitives() == set(PRIMITIVE_NAMES)


def test_readme_lists_every_primitive():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"The primitives are (.*?); the fused ones are", readme, re.DOTALL)
    assert listed, "README.md lost its list of primitives"
    assert set(re.findall(r"`(\w+)`", listed.group(1))) == _recorded_primitives()


def test_add_operands_with_further_gradients_match_central_differences():
    # each leaf is used before its add, so the add's backward runs first and
    # hands out.grad to one operand; the later contributions then land on top
    def fn(p):
        earlier = [_product(p[k], rng_fixed(f"add-reuse-{k}")) for k in ("a", "b", "c")]
        y = _product(T.add(p["a"], p["b"]), rng_fixed("add-reuse-y"))
        twice = T.scale(T.add(p["c"], p["c"]), 0.3)
        total = y
        for term in earlier + [twice]:
            total = T.add(total, term)
        return _total(total)

    for seed in range(20):
        rng = np.random.default_rng(seed)
        params = {k: Tensor(rng.normal(size=(2, 3)), requires_grad=True) for k in ("a", "b", "c")}
        assert check_gradients(fn, params) < 1e-7


# Parent formulas of the primitives whose reductions were reworked, written
# with numpy's own reductions; each returns (output, input gradients) for the
# cotangent g.
def _attention_weights_reference(q, k, g):
    factor = 1.0 / math.sqrt(q.shape[-1])
    scores = q @ k.swapaxes(-1, -2) * factor
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    w = e / e.sum(axis=-1, keepdims=True)
    gs = w * (g - (g * w).sum(axis=-1, keepdims=True)) * factor
    return w, [gs @ k, gs.swapaxes(-1, -2) @ q]


def _smoothed_cross_entropy_reference(x, targets, smoothing, g):
    # the former log_softmax, take_index and reduce_mean primitives, and log_softmax's backward
    shifted = x - x.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    nll = -np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
    out = (1.0 - smoothing) * nll + smoothing * -logp.mean(axis=-1)
    q = np.full(x.shape, smoothing / x.shape[-1])
    np.put_along_axis(q, targets[..., None], 1.0 - smoothing + smoothing / x.shape[-1], axis=-1)
    g_logp = -g[..., None] * q
    return out, [g_logp - np.exp(logp) * g_logp.sum(axis=-1, keepdims=True)]


def _residual_norm_reference(x, sub, gain, bias, g):
    d = x.shape[-1]
    centered = (x + sub) - (x + sub).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt((centered * centered).sum(axis=-1, keepdims=True) / d + 1e-5)
    xhat = centered * inv
    gx = g * gain
    gm = gx.sum(axis=-1, keepdims=True) / d
    gxm = (gx * xhat).sum(axis=-1, keepdims=True) / d
    gsum = inv * (gx - gm - xhat * gxm)
    return xhat * gain + bias, [gsum, gsum, (g * xhat).reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0)]


def _linear_reference(x, w, b, g):
    x2, g2 = x.reshape(-1, w.shape[0]), g.reshape(-1, w.shape[1])
    out = (x2 @ w).reshape(x.shape[:-1] + (w.shape[1],)) + b
    return out, [(g2 @ w.T).reshape(x.shape), x2.T @ g2, g2.sum(axis=0)]


def _attention_reference(q, k, v, heads, blocked, g):
    (b, sq, d), sk = q.shape, k.shape[1]
    dh = d // heads

    def split(x, s):
        return x.reshape(b, s, heads, dh).transpose(0, 2, 1, 3)

    def merge(x, s):
        return x.transpose(0, 2, 1, 3).reshape(b, s, d)

    qh, kh, vh, gh = split(q, sq), split(k, sk), split(v, sk), split(g, sq)
    blocked = np.broadcast_to(blocked, (b, sq, sk))[:, None]
    factor = 1.0 / math.sqrt(dh)
    scores = np.where(blocked, -1e9, qh @ kh.swapaxes(-1, -2) * factor)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    w = e / e.sum(axis=-1, keepdims=True)
    gw = gh @ vh.swapaxes(-1, -2)
    gs = np.where(blocked, 0.0, w * (gw - (gw * w).sum(axis=-1, keepdims=True))) * factor
    grads = [merge(gs @ kh, sq), merge(gs.swapaxes(-1, -2) @ qh, sk), merge(w.swapaxes(-1, -2) @ gh, sk)]
    return merge(w @ vh, sq), grads


def _train_shape_case(name, rng):
    """(primitive over input tensors, input arrays, reference) at a train batch's shapes."""
    rows, length = 200, 3
    if name.startswith("attention_weights"):
        # 12 frames take the short-row reductions; 40 the long-row ones
        frames = int(name.split("-")[1])
        return T.attention_weights, [rng.normal(size=(rows, length, 32)), rng.normal(size=(rows, frames, 32))], \
            _attention_weights_reference
    if name.startswith("smoothed_cross_entropy"):
        # 7 target words take the short-row max; 40 the long-row one
        width = int(name.split("-")[1])
        # rows hundreds apart: shifting a row by another row's max would over- or underflow
        x = rng.normal(scale=3.0, size=(rows, length, width)) + rng.uniform(-500, 500, size=(rows, length, 1))
        targets = rng.integers(0, width, size=(rows, length))
        return (lambda a: T.smoothed_cross_entropy(a, targets, 0.1)), [x], \
            (lambda a, g: _smoothed_cross_entropy_reference(a, targets, 0.1, g))
    if name == "residual_norm":
        return T.residual_norm, [rng.normal(size=(rows, length, 32)), rng.normal(size=(rows, length, 32)),
                                 rng.normal(size=32), rng.normal(size=32)], _residual_norm_reference
    if name == "linear":
        return T.linear, [rng.normal(size=(rows, length, 32)), rng.normal(size=(32, 64)), rng.normal(size=64)], _linear_reference
    # four target queries over four source keys, the last of them padding in every other row
    blocked = np.zeros((rows, 1, 4), dtype=bool)
    blocked[::2, :, 3] = True
    arrays = [rng.normal(size=(rows, 4, 32)) for _ in range(3)]
    return (lambda q, k, v: T.attention(q, k, v, 4, blocked)), arrays, \
        (lambda q, k, v, g: _attention_reference(q, k, v, 4, blocked, g))


@pytest.mark.parametrize("name", [
    "attention", "residual_norm", "linear", "smoothed_cross_entropy-7", "smoothed_cross_entropy-40",
    "attention_weights-12", "attention_weights-40",
])
def test_primitives_match_reference_formulas_at_train_shapes(name):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    op, arrays, reference = _train_shape_case(name, rng)
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        out = op(*inputs)
        cotangent = rng.normal(size=out.shape)
        tape.backward(T.weighted_sum(out, cotangent))
    ref_out, ref_grads = reference(*arrays, cotangent)
    np.testing.assert_allclose(out.data, ref_out, rtol=1e-12, atol=1e-12)
    for t, ref in zip(inputs, ref_grads):
        np.testing.assert_allclose(t.grad, ref, rtol=1e-12, atol=1e-12)


def test_embedding_backward_equals_scatter_add():
    rng = np.random.default_rng(8)
    table = Tensor(rng.normal(size=(7, 5)), requires_grad=True)
    ids = rng.integers(0, 6, size=(40, 3))  # every id repeats; id 6 never occurs
    cotangent = rng.normal(size=(40, 3, 5))
    with Tape() as tape:
        tape.backward(T.weighted_sum(T.embedding(table, ids), cotangent))
    expected = np.zeros((7, 5))
    np.add.at(expected, ids.reshape(-1), cotangent.reshape(-1, 5))
    assert table.grad.tobytes() == expected.tobytes()


def test_attention_nan_input_names_attention():
    q = np.ones((1, 2, 4))
    q[0, 1, 3] = np.nan
    with pytest.raises(NumericError, match="attention"):
        T.attention(Tensor(q), Tensor(np.ones((1, 3, 4))), Tensor(np.ones((1, 3, 4))), 2)


@pytest.mark.parametrize("shape,ok", [
    ((2, 3, 4), True), ((2, 1, 4), True), ((1, 3, 4), True), ((3, 4), True), ((4,), True), ((), True),
    ((2, 3, 5), False), ((3, 3, 4), False), ((2, 4), False), ((1, 2, 3, 4), False),
])
def test_attention_checks_the_blocked_shape(shape, ok):
    # blocked broadcasts to (B, Sq, Sk) = (2, 3, 4) and is shared by the heads, never per head
    rng = np.random.default_rng(3)
    q, kv = Tensor(rng.normal(size=(2, 3, 4))), Tensor(rng.normal(size=(2, 4, 4)))
    blocked = np.zeros(shape, dtype=bool)
    if ok:
        expected = T.attention(q, kv, kv, 2).data
        assert T.attention(q, kv, kv, 2, blocked).data.tobytes() == expected.tobytes()
    else:
        with pytest.raises(ShapeError, match="blocked shape"):
            T.attention(q, kv, kv, 2, blocked)


def test_kl_divergence_of_a_one_hot_row_is_finite():
    # the zeros sit below the 1e-12 floor, where log p is a constant
    target = np.array([0.2, 0.5, 0.3])
    p = Tensor(np.array([[0.0, 1.0, 0.0]]), requires_grad=True)
    with Tape() as tape:
        loss = _total(T.kl_divergence(p, target))
        tape.backward(loss)
    assert loss.item() == -np.log(0.5)
    expected = [np.log(1e-12) - np.log(0.2), 1.0 - np.log(0.5), np.log(1e-12) - np.log(0.3)]
    assert p.grad.tolist() == [expected]


def test_kl_divergence_checks_its_target():
    with pytest.raises(ShapeError, match="kl_divergence"):
        T.kl_divergence(Tensor(np.full((2, 3), 1 / 3)), np.full(4, 0.25))


def test_finite_output_with_overflowing_squares_passes_silently():
    # the squares overflow the fast sum-of-squares test; the element-wise fallback accepts them
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = T.scale(Tensor(np.full((2, 3), 1e200)), -1.0)
    assert (out.data == -1e200).all()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_all_finite_finds_one_non_finite_value(value, dtype):
    a = np.ones((3, 4), dtype=dtype)
    assert T.all_finite(a) is True
    a[2, 1] = value
    assert T.all_finite(a) is False
    assert T.all_finite(a.T) is False  # a transposed view is read in memory order


def test_all_finite_edge_cases():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # squares that overflow send the test to the element-wise pass, which accepts them
        assert T.all_finite(np.full((2, 3), 1e200)) is True
        assert T.all_finite(np.full(5, 1e30, dtype=np.float32)) is True
    assert T.all_finite(np.empty((0, 4))) is True
    a = np.arange(12.0).reshape(3, 4)
    assert T.all_finite(a.T) is True
    a[0, 3] = np.nan
    assert T.all_finite(a.T[1:]) is False and T.all_finite(a.T[:3, 1:]) is True


# (primitive, left shape, right shape, left operand is a transposed view, operands that need a
# gradient); the others are constants, the only operands that may broadcast
_SHAPE_CASES = [
    ("matmul", (2, 2, 3, 4), (2, 2, 4, 3), False, "ab"),  # batched on both sides
    ("matmul", (3, 4), (2, 4, 5), False, "b"),            # constant left operand shared by the batch
    ("matmul", (2, 4, 3), (2, 4, 5), True, "b"),          # non-contiguous left operand
    ("add", (2, 3), (1, 3), False, "a"),
    ("add", (2, 3), (2, 1), False, "a"),
    ("add", (2, 1, 3), (3,), False, "a"),
]


@pytest.mark.parametrize(
    "name,shape_a,shape_b,transposed,taped", _SHAPE_CASES,
    ids=[f"{n}-{a}-{b}{'-transposed' if t else ''}" for n, a, b, t, _ in _SHAPE_CASES],
)
def test_broadcast_and_batched_gradients_match_central_differences(name, shape_a, shape_b, transposed, taped):
    op = getattr(T, name)
    key = f"{name}{shape_a}{shape_b}{transposed}"

    def fn(operands):
        out = op(operands["a"], operands["b"])
        return T.weighted_sum(out, rng_fixed(key, out.shape))

    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        a, b = rng.normal(size=shape_a), rng.normal(size=shape_b)
        # a view cannot be perturbed in place, so a transposed operand is a constant
        operands = {"a": a.swapaxes(-1, -2) if transposed else a, "b": b}
        params = {k: Tensor(v, requires_grad=True) for k, v in operands.items() if k in taped}
        constants = {k: Tensor(v) for k, v in operands.items() if k not in taped}
        worst = np.maximum(worst, check_gradients(lambda p: fn({**constants, **p}), params))
    assert worst < 1e-4, f"{key}: max relative error {worst}"


_BROADCAST_CASES = [  # (primitive, left shape, right shape, the operand that broadcasts)
    ("add", (2, 3), (1, 3), "b"), ("add", (2, 1, 3), (3,), "b"), ("add", (1, 3), (2, 3), "a"),
    ("matmul", (3, 4), (2, 4, 5), "a"), ("matmul", (2, 3, 4), (4, 5), "b"), ("matmul", (1, 3, 4), (2, 4, 5), "a"),
]


@pytest.mark.parametrize("name,shape_a,shape_b,broadcast", _BROADCAST_CASES,
                         ids=[f"{n}-{a}-{b}" for n, a, b, _ in _BROADCAST_CASES])
def test_operand_that_needs_a_gradient_does_not_broadcast(name, shape_a, shape_b, broadcast):
    op = getattr(T, name)
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=shape_a), rng.normal(size=shape_b)
    with Tape():
        with pytest.raises(ShapeError, match=f"{name}: .* needs a gradient"):
            op(Tensor(a, requires_grad=broadcast == "a"), Tensor(b, requires_grad=broadcast == "b"))
        # as a constant the same operand broadcasts beside a taped one
        out = op(Tensor(a, requires_grad=broadcast == "b"), Tensor(b, requires_grad=broadcast == "a"))
    np.testing.assert_array_equal(out.data, getattr(np, name)(a, b))


def test_matmul_constant_operand_keeps_no_grad():
    # also linear without a bias, the weight product of the projections that have none
    rng = np.random.default_rng(5)
    x, cotangent = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 5))

    def grads(op, w, x_requires_grad, w_requires_grad):
        a, b = Tensor(x, x_requires_grad), Tensor(w, w_requires_grad)
        with Tape() as tape:
            tape.backward(T.weighted_sum(op(a, b), cotangent))
        return a.grad, b.grad

    # a weight that needs a gradient spans matmul's batch; linear shares one 2-D weight
    for op, w in ((T.matmul, rng.normal(size=(2, 4, 5))), (T.linear, rng.normal(size=(4, 5)))):
        ga, gb = grads(op, w, True, True)
        const_x, only_w = grads(op, w, False, True)
        only_x, const_w = grads(op, w, True, False)
        assert const_x is None and const_w is None
        np.testing.assert_array_equal(only_w, gb)
        np.testing.assert_array_equal(only_x, ga)


def test_elementwise_gradients_skip_constant_operands():
    # a constant operand's gradient is never formed
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(4, 3, 2)), requires_grad=True)
    const = Tensor(rng.normal(size=(3, 2)))
    for operands in ((x, const), (const, x)):
        x.grad = None
        with Tape() as tape:
            tape.backward(_total(T.add(*operands)))
        assert const.grad is None
        np.testing.assert_array_equal(x.grad, np.ones(x.shape))
    # lerp, the gated fusion, with one operand taped: the constants' gradients are never formed
    a, b, t = (Tensor(rng.normal(size=(4, 3, 2))) for _ in range(3))
    expected = (1.0 - t.data, t.data, b.data - a.data)
    for i, leaf in enumerate((a, b, t)):
        for operand in (a, b, t):
            operand.requires_grad, operand.grad = operand is leaf, None
        with Tape() as tape:
            tape.backward(_total(T.lerp(a, b, t)))
        assert [op.grad is None for op in (a, b, t)] == [op is not leaf for op in (a, b, t)]
        np.testing.assert_array_equal(leaf.grad, expected[i])


@pytest.mark.parametrize("shapes", [((2, 3), (2, 3), (3,)), ((2, 3), (1, 3), (2, 3)), ((2, 1), (2, 3), (2, 3))])
def test_lerp_rejects_unequal_shapes(shapes):
    with pytest.raises(ShapeError, match="lerp"):
        T.lerp(*(Tensor(np.zeros(shape)) for shape in shapes))


def test_weighted_sum_rejects_weights_of_another_shape():
    with pytest.raises(ShapeError, match="weighted_sum"):
        T.weighted_sum(Tensor(np.zeros((2, 3))), np.ones(3))


def test_check_gradients_square():
    params = {"x": Tensor([3.0], requires_grad=True)}
    err = check_gradients(lambda p: _total(_product(p["x"], p["x"])), params)
    assert err < 1e-8


def test_check_gradients_softmax_nll_matches_closed_form():
    rng = np.random.default_rng(42)
    logits = Tensor(rng.normal(size=(6,)), requires_grad=True)
    target = 2
    probs = np.exp(logits.data - np.logaddexp.reduce(logits.data))
    for smoothing in (0.0, 0.1):

        def nll(p):
            return T.smoothed_cross_entropy(p["logits"], np.array(target), smoothing)

        err = check_gradients(nll, {"logits": logits})
        assert err < 1e-6
        # closed form: softmax(logits) - q, with q = onehot(target) when unsmoothed
        with Tape() as tape:
            logits.grad = None
            tape.backward(nll({"logits": logits}))
        q = np.full(6, smoothing / 6)
        q[target] += 1.0 - smoothing
        np.testing.assert_allclose(logits.grad, probs - q, atol=1e-12)


def test_smoothed_cross_entropy_checks_its_targets():
    logits = Tensor(np.zeros((2, 3, 4)))
    with pytest.raises(ShapeError, match="target shape"):
        T.smoothed_cross_entropy(logits, np.zeros((2, 4), dtype=int), 0.1)
    with pytest.raises(ShapeError, match="out of range"):
        T.smoothed_cross_entropy(logits, np.full((2, 3), 4), 0.1)


def test_check_gradients_rejects_nondeterminism():
    state = {"calls": 0}

    def fn(p):
        state["calls"] += 1
        return T.scale(p["x"], float(state["calls"]))

    with pytest.raises(DeterminismError):
        check_gradients(fn, {"x": Tensor([1.0], requires_grad=True)})


def test_check_gradients_returns_nan_for_a_nan_gradient():
    def nan_first(p):
        x = p["x"]

        def backward():
            T._accumulate(x, np.array([np.nan, 1.0]))

        return T._finish("nan_first", (x,), x.data[1].copy(), backward)

    # the second entry agrees, so a NaN the comparison skipped would pass as ~1e-13
    err = check_gradients(nan_first, {"x": Tensor([1.0, 2.0], requires_grad=True)})
    assert math.isnan(err)
    assert not err < 1e-3


def test_check_gradients_restores_the_entry_when_fn_raises():
    w = Tensor([1.0, 2.0], requires_grad=True)
    original = w.data.tobytes()
    calls = {"n": 0}

    def fn(p):
        calls["n"] += 1
        if calls["n"] == 4:  # two determinism calls, one taped, then w[0] + the step
            raise NumericError("raised while w[0] is perturbed")
        return T.weighted_sum(p["w"], np.ones(2))

    with pytest.raises(NumericError, match="perturbed"):
        check_gradients(fn, {"w": w})
    assert w.data.tobytes() == original


def test_tapes_are_thread_local():
    import threading

    errors = []

    def worker(seed):
        try:
            rng = np.random.default_rng(seed)
            for _ in range(50):
                x = Tensor(rng.normal(size=(4,)), requires_grad=True)
                with Tape() as tape:
                    loss = _total(_product(x, x))
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
