"""Dense float64 tensors with taped reverse-mode differentiation.

Every primitive validates shapes, refuses non-finite outputs, and (when a
Tape is active) records one backward closure, run once by ``Tape.backward``.
The model is a few fused primitives (``linear``, ``attention``,
``attention_weights``, the post-norm ``residual_norm``, ``smoothed_cross_entropy``,
``kl_divergence``, ``lerp``, ``weighted_sum``), so a forward records few tape
entries. No GPU.
"""

import math
import os
import stat
import struct
import threading

import numpy as np


class ShapeError(ValueError):
    """Input shapes do not conform to a primitive's contract."""


class NumericError(ArithmeticError):
    """A primitive produced NaN or Inf."""


class TapeStateError(RuntimeError):
    """Backward called twice on the same tape."""


class DeterminismError(RuntimeError):
    """A function handed to check_gradients returned different values twice."""


class CheckpointError(ValueError):
    """Malformed parameter checkpoint file."""


class Tensor:
    """A float64 array plus an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _accumulate(t, g):
    """Add gradient ``g`` into ``t.grad``; on the first write ``t`` adopts ``g`` itself.

    Adoption skips a zero-fill and an add, and makes ``g`` t's own: a
    backward must hand each array it computes to one tensor only, so that
    no two tensors' gradients share memory.
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.asarray(g)  # a product of 0-d arrays is a numpy scalar
    else:
        t.grad += g


class _Entry:
    __slots__ = ("name", "out", "backward")

    def __init__(self, name, out, backward):
        self.name = name
        self.out = out
        self.backward = backward


class _ActiveTapes(threading.local):
    def __init__(self):
        self.tapes = []


_active = _ActiveTapes()


class Tape:
    """Ordered record of primitive applications (a Wengert list).

    Entries are appended in execution order, so the list is already a
    topological order; backward walks it once in reverse, calling each
    entry's backward closure.

    The active-tape stack is thread-local: independent recordings may run
    on separate threads, but one tape never spans threads. A split training
    step records its two row halves on two tapes, each over its own
    ``Tensor``s of the parameter values, in two processes or one after the
    other.
    """

    def __init__(self):
        self.entries = []
        self._backward_done = False

    def __enter__(self):
        _active.tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _active.tapes.pop()
        return False

    @staticmethod
    def current():
        tapes = _active.tapes
        return tapes[-1] if tapes else None

    def _append(self, name, out, backward):
        self.entries.append(_Entry(name, out, backward))

    def backward(self, loss):
        """Populate the gradients of the leaf tensors reachable from loss.

        Leaves are the requires_grad tensors no recorded primitive produced
        (parameters, inputs); a leaf the loss does not reach keeps ``None``,
        which reads as zero. A recorded output's gradient is released once
        its own backward has consumed it, so the pass reuses that memory
        instead of holding a gradient for every intermediate at once.
        """
        if self._backward_done:
            raise TapeStateError("backward already ran on this tape; record a new pass")
        if loss.data.size != 1:
            raise ShapeError(f"backward: loss must be scalar, got shape {loss.data.shape}")
        self._backward_done = True
        loss.grad = np.ones_like(loss.data)
        for entry in reversed(self.entries):
            if entry.backward is not None and entry.out.grad is not None:
                entry.backward()
                entry.out.grad = None


def all_finite(a):
    """Whether every element of the array ``a`` is finite: the one finiteness test of the package.

    Any NaN or Inf makes the sum of squares non-finite, so only then are the
    elements tested one by one; a finite array whose squares overflow
    passes there. ``np.vdot`` is one BLAS pass and, unlike ``sum``, does not
    warn on overflow. It is handed the elements in memory order: on a
    transposed view it would otherwise take a strided path 35x slower.
    """
    flat = a.ravel(order="K")
    return math.isfinite(np.vdot(flat, flat)) or bool(np.isfinite(a).all())


def _finish(name, inputs, out_data, backward):
    """Shared tail of every primitive: finiteness check, wrap, record.

    Every primitive computes a float64 array, so the output ``Tensor`` is
    built without ``Tensor.__init__``'s conversion; only arithmetic on 0-d
    arrays, which numpy returns as a scalar, is wrapped into a 0-d array.
    """
    if not all_finite(out_data):
        raise NumericError(f"{name}: non-finite values in output")
    if type(out_data) is not np.ndarray:
        out_data = np.asarray(out_data)
    out = object.__new__(Tensor)
    out.data, out.grad, out.requires_grad = out_data, None, False
    for t in inputs:
        if t.requires_grad:
            out.requires_grad = True
            break
    tapes = _active.tapes
    if tapes:
        tapes[-1]._append(name, out, backward if out.requires_grad else None)
    return out


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


# numpy reduces the last axis of a C-ordered array one row at a time, about
# 60 ns a row when rows hold 3-12 values, as attention scores do. With many
# short rows, a sum is one BLAS matrix-vector product with a ones vector, and
# a max one reduction across the rows of a transposed copy. Below _MANY_ROWS
# rows numpy's per-row cost is under those calls' fixed cost, and rows longer
# than _SHORT_ROW values (a vocabulary-wide cross-entropy) keep numpy's own
# reductions, which vectorize along the row.
_MANY_ROWS = 64
_SHORT_ROW = 32


def _many_short_rows(x):
    n = x.shape[-1]
    return n <= _SHORT_ROW and x.size >= _MANY_ROWS * n


def _row_sum(x):
    """Sum over the last axis, kept as an axis of length 1."""
    if not _many_short_rows(x):
        return np.add.reduce(x, axis=-1, keepdims=True)
    n = x.shape[-1]
    return np.dot(x.reshape(-1, n), np.ones(n)).reshape(x.shape[:-1] + (1,))


def _col_sum(x2):
    """Sum over the rows of a 2-D array."""
    return np.dot(np.ones(x2.shape[0]), x2)


def _row_max(x):
    """Max over the last axis, kept as an axis of length 1."""
    if not _many_short_rows(x):
        return np.maximum.reduce(x, axis=-1, keepdims=True)
    n = x.shape[-1]
    return np.maximum.reduce(x.reshape(-1, n).T.copy(), axis=0).reshape(x.shape[:-1] + (1,))


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


def add(a, b):
    """``a + b``; only a constant operand broadcasts, so no gradient is summed back."""
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out_data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.data.shape} and {b.data.shape} do not broadcast") from None
    for t in (a, b):
        if t.requires_grad and t.data.shape != out_data.shape:
            raise ShapeError(f"add: {t.data.shape} needs a gradient, cannot broadcast to {out_data.shape}")

    def backward():
        g = out.grad
        if a.requires_grad:
            _accumulate(a, g)
        if b.requires_grad:
            # when a adopted out.grad itself, b gets its own array
            _accumulate(b, g.copy() if g is a.grad else g)

    out = _finish("add", (a, b), out_data, backward)
    return out


def lerp(a, b, t):
    """``a + t * (b - a)``, elementwise, for three tensors of one shape."""
    a, b, t = _as_tensor(a), _as_tensor(b), _as_tensor(t)
    if not a.data.shape == b.data.shape == t.data.shape:
        raise ShapeError(f"lerp: shapes {a.data.shape}, {b.data.shape} and {t.data.shape} differ")
    diff = b.data - a.data
    out_data = a.data + t.data * diff

    def backward():
        g = out.grad
        if t.requires_grad:
            _accumulate(t, g * diff)
        if a.requires_grad or b.requires_grad:
            gb = g * t.data
            if a.requires_grad:
                _accumulate(a, g - gb)
            _accumulate(b, gb)

    out = _finish("lerp", (a, b, t), out_data, backward)
    return out


def scale(a, factor):
    a = _as_tensor(a)
    factor = float(factor)
    out_data = a.data * factor

    def backward():
        _accumulate(a, out.grad * factor)

    out = _finish("scale", (a,), out_data, backward)
    return out


def matmul(a, b):
    """Batched ``a @ b`` as in ``np.matmul``; only a constant broadcasts. A 2-D weight takes ``linear``."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul: operands must have rank >= 2, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(
            f"matmul: contraction mismatch, axis -1 of {a.data.shape} vs axis -2 of {b.data.shape}"
        )
    out_data = np.matmul(a.data, b.data)
    for t in (a, b):
        if t.requires_grad and t.data.shape[:-2] != out_data.shape[:-2]:
            raise ShapeError(f"matmul: {t.data.shape} needs a gradient, cannot broadcast to {out_data.shape}")

    def backward():
        g = out.grad
        if a.requires_grad:
            _accumulate(a, np.matmul(g, np.swapaxes(b.data, -1, -2)))
        if b.requires_grad:
            _accumulate(b, np.matmul(np.swapaxes(a.data, -1, -2), g))

    out = _finish("matmul", (a, b), out_data, backward)
    return out


def linear(x, w, b=None):
    """``x @ w`` for a 2-D weight ``w``, plus ``b`` over its columns when a bias is given.

    The leading axes of ``x`` fold into one GEMM, forward and for each
    gradient; the bias gradient is one column sum over the folded rows.
    The GEMMs are ``ndarray.dot``: the same BLAS call as the ``@``
    operator, without the ufunc set-up that dominates on a small operand.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), None if b is None else _as_tensor(b)
    if w.data.ndim != 2 or x.data.ndim < 1 or x.data.shape[-1] != w.data.shape[0] \
            or (b is not None and b.data.shape != w.data.shape[1:]):
        raise ShapeError(
            f"linear: input {x.data.shape}, weight {w.data.shape} and bias "
            f"{None if b is None else b.data.shape} do not conform"
        )
    d_in, d_out = w.data.shape
    x2 = x.data.reshape(-1, d_in)
    out_data = x2.dot(w.data).reshape(x.data.shape[:-1] + (d_out,))
    if b is not None:
        out_data += b.data

    def backward():
        g2 = out.grad.reshape(-1, d_out)
        if x.requires_grad:
            _accumulate(x, g2.dot(w.data.T).reshape(x.data.shape))
        if w.requires_grad:
            _accumulate(w, x2.T.dot(g2))
        if b is not None and b.requires_grad:
            _accumulate(b, _col_sum(g2))

    out = _finish("linear", (x, w) if b is None else (x, w, b), out_data, backward)
    return out


_NEG_FILL = -1e9  # a blocked score; its softmax weight underflows to exactly 0


def _score_softmax(qh, kh, factor, blocked):
    """``softmax(qh khᵀ * factor)`` over the keys, with blocked scores set to -1e9 first."""
    scores = np.matmul(qh, kh.swapaxes(-1, -2))
    scores *= factor
    if blocked is not None:
        np.copyto(scores, _NEG_FILL, where=blocked)
    scores -= _row_max(scores)
    weights = np.exp(scores, out=scores)
    weights /= _row_sum(weights)
    return weights


def _score_gradient(gw, weights, factor, blocked):
    """The scores' gradient from the weights' gradient ``gw``, which it overwrites."""
    gw -= _row_sum(gw * weights)
    gw *= weights
    if blocked is not None:
        # a blocked score is a constant; in a row that sees no key its weight is not 0
        np.copyto(gw, 0.0, where=blocked)
    gw *= factor
    return gw


def attention(q, k, v, heads, blocked=None):
    """Multi-head scaled dot-product attention of (B, Sq, d) queries over (B, Sk, d) keys and values.

    The last axis splits into ``heads`` heads of width d / heads. Each
    head's scores ``q kᵀ / sqrt(d / heads)`` are softmaxed over the keys,
    and the heads' mixes of ``v`` merge back into (B, Sq, d). ``blocked``
    is True where a query may not look at a key; it broadcasts to
    (B, Sq, Sk), is shared by every head, and sets those scores to -1e9.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.data.ndim != 3 or k.data.ndim != 3 or k.data.shape != v.data.shape \
            or k.data.shape[::2] != q.data.shape[::2]:
        raise ShapeError(
            f"attention: queries {q.data.shape}, keys {k.data.shape} and values {v.data.shape} "
            "must be (B, Sq, d), (B, Sk, d), (B, Sk, d)"
        )
    b, sq, d = q.data.shape
    sk = k.data.shape[1]
    if heads < 1 or d % heads:
        raise ShapeError(f"attention: width {d} does not split into {heads} heads")
    dh = d // heads
    if blocked is not None:
        # np.copyto broadcasts it over the (B, heads, Sq, Sk) scores; only its shape is checked here
        blocked = np.asarray(blocked, dtype=bool)
        shape = blocked.shape
        if len(shape) > 3 or any(n != 1 and n != m for n, m in zip(shape[::-1], (sk, sq, b))):
            raise ShapeError(f"attention: blocked shape {shape} does not broadcast to {(b, sq, sk)}")
        if len(shape) == 3:
            blocked = blocked[:, None]  # one mask for every head

    def split(x, s):
        return x.reshape(b, s, heads, dh).transpose(0, 2, 1, 3)

    def merge(x, s):
        return x.transpose(0, 2, 1, 3).reshape(b, s, d)

    qh, kh, vh = split(q.data, sq), split(k.data, sk), split(v.data, sk)
    factor = 1.0 / math.sqrt(dh)
    weights = _score_softmax(qh, kh, factor, blocked)
    out_data = merge(np.matmul(weights, vh), sq)

    def backward():
        gh = split(out.grad, sq)
        if v.requires_grad:
            _accumulate(v, merge(np.matmul(weights.swapaxes(-1, -2), gh), sk))
        if q.requires_grad or k.requires_grad:
            gs = _score_gradient(np.matmul(gh, vh.swapaxes(-1, -2)), weights, factor, blocked)
            if q.requires_grad:
                _accumulate(q, merge(np.matmul(gs, kh), sq))
            if k.requires_grad:
                _accumulate(k, merge(np.matmul(gs.swapaxes(-1, -2), qh), sk))

    out = _finish("attention", (q, k, v), out_data, backward)
    return out


def attention_weights(q, k):
    """Single-head ``softmax(q kᵀ / sqrt(d))``, (B, Sq, Sk), of (B, Sq, d) queries over (B, Sk, d) keys."""
    q, k = _as_tensor(q), _as_tensor(k)
    if q.data.ndim != 3 or k.data.ndim != 3 or k.data.shape[::2] != q.data.shape[::2]:
        raise ShapeError(
            f"attention_weights: queries {q.data.shape} and keys {k.data.shape} "
            "must be (B, Sq, d), (B, Sk, d)"
        )
    factor = 1.0 / math.sqrt(q.data.shape[-1])
    out_data = _score_softmax(q.data, k.data, factor, None)

    def backward():
        # out.grad is this entry's own and is dropped after this call, so it is overwritten
        gs = _score_gradient(out.grad, out.data, factor, None)
        if q.requires_grad:
            _accumulate(q, np.matmul(gs, k.data))
        if k.requires_grad:
            _accumulate(k, np.matmul(gs.swapaxes(-1, -2), q.data))

    out = _finish("attention_weights", (q, k), out_data, backward)
    return out


def smoothed_cross_entropy(logits, targets, smoothing):
    """Per-position label-smoothed cross-entropy of ``logits`` (..., V) at integer ``targets`` (...).

    With q = (1 - smoothing) on the target plus smoothing / V on every class,
    a position's loss is -sum_c q_c log softmax(logits)_c, that is
    (1 - smoothing) NLL(target) + smoothing * mean_c NLL(c). Its gradient is
    ``g * (softmax - q)``; the softmax is the one logits-sized array kept
    for backward, which turns it into the gradient in place.
    """
    logits, targets = _as_tensor(logits), np.asarray(targets)
    x = logits.data
    if x.ndim < 1 or targets.shape != x.shape[:-1]:
        raise ShapeError(f"smoothed_cross_entropy: target shape {targets.shape} is not logits {x.shape}[:-1]")
    v = x.shape[-1]
    if targets.size and (targets.min() < 0 or targets.max() >= v):
        raise ShapeError(f"smoothed_cross_entropy: target id out of range [0, {v})")
    smoothing = float(smoothing)
    rows, cols = np.arange(targets.size), targets.reshape(-1)
    x2 = x.reshape(-1, v)
    shifted = x2 - _row_max(x2)
    picked = shifted[rows, cols]
    mean = _row_sum(shifted)[:, 0] / v
    probs = np.exp(shifted, out=shifted)
    total = _row_sum(probs)
    probs /= total
    out_data = np.log(total[:, 0]) - (1.0 - smoothing) * picked - smoothing * mean

    def backward():
        ga = probs  # only this backward reads the softmax
        ga -= smoothing / v
        ga[rows, cols] -= 1.0 - smoothing
        ga *= out.grad.reshape(-1, 1)
        _accumulate(logits, ga.reshape(x.shape))

    out = _finish("smoothed_cross_entropy", (logits,), out_data.reshape(targets.shape), backward)
    return out


_PROB_FLOOR = 1e-12


def kl_divergence(p, target):
    """Per-row KL(p ‖ target) over the last axis of ``p``; ``target`` is one constant distribution.

    Both sides are floored at 1e-12 inside the logs, so an exact zero never
    gives an infinity. Below the floor log p is constant, so the gradient is
    ``g * (log max(p, floor) - log max(target, floor) + [p > floor])``.
    """
    p, target = _as_tensor(p), np.asarray(target, dtype=np.float64)
    if p.data.ndim < 1 or target.shape != p.data.shape[-1:]:
        raise ShapeError(
            f"kl_divergence: target shape {target.shape} does not match the last axis of {p.data.shape}"
        )
    log_ratio = np.log(np.maximum(p.data, _PROB_FLOOR))
    log_ratio -= np.log(np.maximum(target, _PROB_FLOOR))
    out_data = _row_sum(p.data * log_ratio)[..., 0]

    def backward():
        gp = log_ratio  # only this backward reads the log ratio
        gp += p.data > _PROB_FLOOR
        gp *= out.grad[..., None]
        _accumulate(p, gp)

    out = _finish("kl_divergence", (p,), out_data, backward)
    return out


def sigmoid(a):
    a = _as_tensor(a)
    x = a.data
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, so exp never overflows
    e = np.exp(-np.abs(x))
    out_data = np.where(x >= 0, 1.0, e) / (1.0 + e)

    def backward():
        s = out.data
        _accumulate(a, out.grad * s * (1.0 - s))

    out = _finish("sigmoid", (a,), out_data, backward)
    return out


def relu(a):
    a = _as_tensor(a)
    out_data = np.maximum(a.data, 0.0)

    def backward():
        _accumulate(a, out.grad * (a.data > 0))

    out = _finish("relu", (a,), out_data, backward)
    return out


_LN_EPS = 1e-5


def residual_norm(x, sub, gain, bias):
    """The post-norm residual: normalize ``x + sub`` over the last axis, then ``* gain + bias``.

    As in ``add``, the sum's gradient goes to ``x``, and ``sub`` gets its own copy when ``x`` adopted it.
    """
    x, sub, gain, bias = _as_tensor(x), _as_tensor(sub), _as_tensor(gain), _as_tensor(bias)
    d = x.data.shape[-1]
    if sub.data.shape != x.data.shape or d < 1 or gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(
            f"residual_norm: input {x.data.shape}, sublayer {sub.data.shape}, gain {gain.data.shape} "
            f"and bias {bias.data.shape} do not conform"
        )
    xhat = x.data + sub.data
    xhat -= _row_sum(xhat) / d
    inv = 1.0 / np.sqrt(_row_sum(xhat * xhat) / d + _LN_EPS)
    xhat *= inv  # centered until here
    out_data = xhat * gain.data
    out_data += bias.data

    def backward():
        g = out.grad
        if gain.requires_grad:
            _accumulate(gain, _col_sum((g * xhat).reshape(-1, d)))
        if bias.requires_grad:
            _accumulate(bias, _col_sum(g.reshape(-1, d)))
        if x.requires_grad or sub.requires_grad:
            gx = g * gain.data
            gm = _row_sum(gx) / d
            gxm = _row_sum(gx * xhat) / d
            gx -= gm
            gx -= xhat * gxm
            gx *= inv
            _accumulate(x, gx)
            if sub.requires_grad:
                _accumulate(sub, gx.copy() if gx is x.grad else gx)

    out = _finish("residual_norm", (x, sub, gain, bias), out_data, backward)
    return out


def embedding(table, ids, factor=1.0, positions=None):
    """Scaled row lookup plus constant positions: out[...] = table[ids[...], :] * factor + positions.

    ``positions`` (a constant, such as the position table) must broadcast
    to the output's shape; its gradient is never formed.
    """
    table = _as_tensor(table)
    ids = np.asarray(ids)
    if table.data.ndim != 2:
        raise ShapeError(f"embedding: table must be 2-D, got {table.data.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ShapeError(
            f"embedding: id out of range [0, {table.data.shape[0]}) in lookup"
        )
    factor = float(factor)
    out_data = table.data[ids]
    out_data *= factor
    if positions is not None:
        try:
            out_data += positions
        except ValueError:
            raise ShapeError(
                f"embedding: positions of shape {np.shape(positions)} do not broadcast to {out_data.shape}"
            ) from None

    def backward():
        # one bincount over the flattened (id, column) cells adds the rows of
        # repeated ids in the order np.add.at would, without its scatter
        rows, d = table.data.shape
        cells = (ids.reshape(-1, 1) * d + np.arange(d)).reshape(-1)
        gt = np.bincount(cells, weights=(out.grad * factor).reshape(-1), minlength=rows * d)
        _accumulate(table, gt.reshape(rows, d))

    out = _finish("embedding", (table,), out_data, backward)
    return out


def dropout(a, rate, mask):
    """Inverted dropout with a caller-supplied keep mask (True keeps).

    rate 0 is the identity. The backward closure scales by the same mask.
    """
    a = _as_tensor(a)
    rate = float(rate)
    if not 0.0 <= rate < 1.0:
        raise ShapeError(f"dropout: rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return a
    if mask is None:
        raise ShapeError("dropout: a keep mask is required when rate > 0")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != a.data.shape:
        raise ShapeError(f"dropout: mask shape {mask.shape} != data shape {a.data.shape}")
    keep = 1.0 - rate
    out_data = a.data * mask / keep

    def backward():
        _accumulate(a, out.grad * mask / keep)

    out = _finish("dropout", (a,), out_data, backward)
    return out


def weighted_sum(x, weights, axis=None):
    """``sum(x * weights)`` over ``axis`` (every axis when None), for constant ``weights`` of x's shape."""
    x, weights = _as_tensor(x), np.asarray(weights, dtype=np.float64)
    if weights.shape != x.data.shape:
        raise ShapeError(f"weighted_sum: weights {weights.shape} do not match values {x.data.shape}")
    out_data = np.add.reduce(np.multiply(x.data, weights), axis=axis)  # ndarray.sum without its wrapper

    def backward():
        g = out.grad if axis is None else np.expand_dims(out.grad, axis)
        _accumulate(x, g * weights)

    out = _finish("weighted_sum", (x,), out_data, backward)
    return out


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

_CD_STEP = 1e-4  # the central-difference step


def check_gradients(fn, params):
    """Max relative error between taped gradients and central differences of step ``_CD_STEP``.

    ``fn`` maps the parameter dict to a scalar Tensor and must be
    deterministic (run dropout disabled). The relative error per entry is
    |analytic - cd| / max(|analytic|, |cd|, 1e-8); a NaN error is returned
    as NaN. Each entry is restored after its two calls, also when ``fn`` raises.
    """
    first = np.array(fn(params).data, copy=True)
    second = np.array(fn(params).data, copy=True)
    if not np.array_equal(first, second):
        raise DeterminismError("function returned different forward values across calls")

    for p in params.values():
        p.grad = None
    with Tape() as tape:
        loss = fn(params)
        tape.backward(loss)
    analytic = {
        k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for k, p in params.items()
    }

    max_rel = 0.0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        flat_grad = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            try:
                flat[i] = orig + _CD_STEP
                plus = fn(params).item()
                flat[i] = orig - _CD_STEP
                minus = fn(params).item()
            finally:
                flat[i] = orig
            cd = (plus - minus) / (2.0 * _CD_STEP)
            rel = abs(flat_grad[i] - cd) / max(abs(flat_grad[i]), abs(cd), 1e-8)
            if rel > max_rel or rel != rel:  # a NaN is never greater, and no later error replaces it
                max_rel = rel
    return max_rel


# ---------------------------------------------------------------------------
# Parameter checkpoints
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"SAFA"
_CKPT_VERSION = 1
_STREAM_CHUNK = 1 << 20  # bytes per read when the input is not a regular file


def save_checkpoint(path, named_arrays):
    """Write named float64 arrays; bit-exact round trip guaranteed.

    Layout: magic "SAFA", u32 version, then per entry: u16 name length,
    UTF-8 name, u8 rank, u64 dims, little-endian float64 values row-major.
    """
    with open(path, "wb") as f:
        f.write(_CKPT_MAGIC)
        f.write(struct.pack("<I", _CKPT_VERSION))
        for name, value in named_arrays.items():
            arr = np.asarray(value.data if isinstance(value, Tensor) else value, dtype="<f8")
            encoded = name.encode("utf-8")
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<B", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            f.write(arr.tobytes(order="C"))


def read_exact(f, size, path, error, what):
    """Read exactly ``size`` bytes of binary file ``f``, or raise ``error`` naming ``path``.

    ``size`` is a Python int, so a corrupt header cannot overflow the size
    arithmetic. For a regular file it is checked against the bytes left
    before anything is read; a pipe or device is read in bounded chunks, so
    an absurd size fails at end of input instead of allocating it up front.
    """
    info = os.fstat(f.fileno())
    if stat.S_ISREG(info.st_mode):
        left = info.st_size - f.tell()
        if size > left:
            raise error(f"{path}: truncated {what}: needs {size} bytes, {left} left")
        return f.read(size)
    chunks, got = [], 0
    while got < size:
        chunk = f.read(min(size - got, _STREAM_CHUNK))
        if not chunk:
            raise error(f"{path}: truncated {what}: needs {size} bytes, got {got}")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def load_checkpoint(path):
    """Read a checkpoint back into an ordered dict of float64 arrays."""
    out = {}
    with open(path, "rb") as f:

        def take(size, what):
            return read_exact(f, size, path, CheckpointError, what)

        if f.read(4) != _CKPT_MAGIC:
            raise CheckpointError(f"{path}: bad magic, not a parameter checkpoint")
        (version,) = struct.unpack("<I", take(4, "header"))
        if version != _CKPT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        while f.peek(1):
            (name_len,) = struct.unpack("<H", take(2, "entry header"))
            try:
                name = take(name_len, "parameter name").decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(f"{path}: parameter name is not UTF-8") from None
            (rank,) = struct.unpack("<B", take(1, f"rank of parameter {name!r}"))
            dims = struct.unpack(f"<{rank}Q", take(8 * rank, f"shape of parameter {name!r}"))
            raw = take(8 * math.prod(dims), f"values for parameter {name!r}")
            try:
                out[name] = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(dims)
            except ValueError:  # too many axes, or an axis numpy cannot index, beside a zero
                raise CheckpointError(f"{path}: parameter {name!r} has an impossible shape") from None
    return out
