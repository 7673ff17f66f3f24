"""Dense float64 tensors with taped reverse-mode differentiation.

Every primitive validates shapes, refuses non-finite outputs, and (when a
Tape is active) records one backward closure, run once by ``Tape.backward``.
The model's layers are a few fused primitives (``linear``, ``attention``,
the affine ``layer_norm``), so a forward records few tape entries. No GPU:
values are plain numpy arrays.
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

    def zero_grad(self):
        self.grad = np.zeros_like(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _accumulate(t, g):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


class _Entry:
    __slots__ = ("name", "inputs", "out", "backward")

    def __init__(self, name, inputs, out, backward):
        self.name = name
        self.inputs = inputs
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
    on separate threads, but one tape never spans threads.
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

    def _append(self, name, inputs, out, backward):
        self.entries.append(_Entry(name, inputs, out, backward))

    def backward(self, loss):
        """Populate the gradients of the leaf tensors reachable from loss.

        Leaves are the requires_grad tensors no recorded primitive produced
        (parameters, inputs). A recorded output's gradient is released once
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
        # unreachable leaves hold zeros, not None
        produced = {id(entry.out) for entry in self.entries}
        for entry in self.entries:
            for t in entry.inputs:
                if t.requires_grad and t.grad is None and id(t) not in produced:
                    t.grad = np.zeros_like(t.data)


def _finish(name, inputs, out_data, backward):
    """Shared tail of every primitive: finiteness check, wrap, record.

    Any NaN or Inf makes the sum of squares non-finite, so only then are the
    elements tested one by one; a finite output whose squares overflow
    passes there. ``np.vdot`` is one BLAS pass and, unlike ``sum``, does not
    warn on overflow. It is handed the elements in memory order: on a
    transposed view it would otherwise take a strided path 35x slower.
    """
    flat = out_data.ravel(order="K")
    if not math.isfinite(np.vdot(flat, flat)) and not np.isfinite(out_data).all():
        raise NumericError(f"{name}: non-finite values in output")
    out = Tensor(out_data)
    out.requires_grad = any([t.requires_grad for t in inputs])
    tapes = _active.tapes
    if tapes:
        tapes[-1]._append(name, inputs, out, backward if out.requires_grad else None)
    return out


def _unbroadcast(grad, shape):
    """Sum a broadcast gradient back down to the original shape, in one reduction."""
    lead = grad.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(
        lead + axis for axis, size in enumerate(shape) if size == 1 and grad.shape[lead + axis] != 1
    )
    if not axes:
        return grad
    return grad.sum(axis=axes, keepdims=True).reshape(shape)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out_data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.data.shape} and {b.data.shape} do not broadcast") from None

    def backward():
        g = out.grad
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    out = _finish("add", (a, b), out_data, backward)
    return out


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out_data = a.data - b.data
    except ValueError:
        raise ShapeError(f"sub: shapes {a.data.shape} and {b.data.shape} do not broadcast") from None

    def backward():
        g = out.grad
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(-g, b.data.shape))

    out = _finish("sub", (a, b), out_data, backward)
    return out


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out_data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.data.shape} and {b.data.shape} do not broadcast") from None

    def backward():
        g = out.grad
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    out = _finish("mul", (a, b), out_data, backward)
    return out


def scale(a, factor):
    a = _as_tensor(a)
    factor = float(factor)
    out_data = a.data * factor

    def backward():
        _accumulate(a, out.grad * factor)

    out = _finish("scale", (a,), out_data, backward)
    return out


def _matmul_data(a, b):
    """``a @ b``; against a 2-D ``b`` the leading axes of ``a`` fold into one GEMM."""
    if b.ndim == 2 and a.ndim > 2:
        return (a.reshape(-1, a.shape[-1]) @ b).reshape(a.shape[:-1] + (b.shape[-1],))
    return np.matmul(a, b)


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul: operands must have rank >= 2, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(
            f"matmul: contraction mismatch, axis -1 of {a.data.shape} vs axis -2 of {b.data.shape}"
        )
    out_data = _matmul_data(a.data, b.data)

    def backward():
        g = out.grad
        if a.requires_grad:
            ga = _matmul_data(g, np.swapaxes(b.data, -1, -2))
            _accumulate(a, _unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            if b.data.ndim == 2:
                gb = a.data.reshape(-1, a.data.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            else:
                gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape)
            _accumulate(b, gb)

    out = _finish("matmul", (a, b), out_data, backward)
    return out


def linear(x, w, b):
    """``x @ w + b`` for a 2-D weight ``w`` and a bias ``b`` over its columns.

    The leading axes of ``x`` fold into one GEMM, forward and for each
    gradient; the bias gradient is one sum over the folded rows.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if w.data.ndim != 2 or x.data.ndim < 1 or x.data.shape[-1] != w.data.shape[0] \
            or b.data.shape != w.data.shape[1:]:
        raise ShapeError(
            f"linear: input {x.data.shape}, weight {w.data.shape} and bias {b.data.shape} do not conform"
        )
    d_in, d_out = w.data.shape
    x2 = x.data.reshape(-1, d_in)
    out_data = (x2 @ w.data).reshape(x.data.shape[:-1] + (d_out,))
    out_data += b.data

    def backward():
        g2 = out.grad.reshape(-1, d_out)
        if x.requires_grad:
            _accumulate(x, (g2 @ w.data.T).reshape(x.data.shape))
        if w.requires_grad:
            _accumulate(w, x2.T @ g2)
        if b.requires_grad:
            _accumulate(b, g2.sum(axis=0))

    out = _finish("linear", (x, w, b), out_data, backward)
    return out


def transpose(a, axes=None):
    """Permute axes; default swaps the last two."""
    a = _as_tensor(a)
    if axes is None:
        axes = tuple(range(a.data.ndim - 2)) + (a.data.ndim - 1, a.data.ndim - 2)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    out_data = np.transpose(a.data, axes)

    def backward():
        _accumulate(a, np.transpose(out.grad, inverse))

    out = _finish("transpose", (a,), out_data, backward)
    return out


def softmax(a):
    """Softmax over the last axis."""
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def backward():
        g = out.grad
        s = out.data
        _accumulate(a, s * (g - (g * s).sum(axis=-1, keepdims=True)))

    out = _finish("softmax", (a,), out_data, backward)
    return out


_NEG_FILL = -1e9  # a blocked score; its softmax weight underflows to exactly 0


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
        try:
            blocked = np.broadcast_to(np.asarray(blocked, dtype=bool), (b, sq, sk))[:, None]
        except ValueError:
            raise ShapeError(
                f"attention: blocked shape {np.shape(blocked)} does not broadcast to {(b, sq, sk)}"
            ) from None

    def split(x, s):
        return x.reshape(b, s, heads, dh).transpose(0, 2, 1, 3)

    def merge(x, s):
        return x.transpose(0, 2, 1, 3).reshape(b, s, d)

    qh, kh, vh = split(q.data, sq), split(k.data, sk), split(v.data, sk)
    factor = 1.0 / math.sqrt(dh)
    scores = np.matmul(qh, kh.swapaxes(-1, -2)) * factor
    if blocked is not None:
        np.copyto(scores, _NEG_FILL, where=blocked)
    scores -= scores.max(axis=-1, keepdims=True)
    weights = np.exp(scores, out=scores)
    weights /= weights.sum(axis=-1, keepdims=True)
    out_data = merge(np.matmul(weights, vh), sq)

    def backward():
        gh = split(out.grad, sq)
        if v.requires_grad:
            _accumulate(v, merge(np.matmul(weights.swapaxes(-1, -2), gh), sk))
        if q.requires_grad or k.requires_grad:
            gw = np.matmul(gh, vh.swapaxes(-1, -2))
            gs = weights * (gw - (gw * weights).sum(axis=-1, keepdims=True))
            if blocked is not None:
                # a blocked score is a constant; in a row that sees no key its weight is not 0
                np.copyto(gs, 0.0, where=blocked)
            gs *= factor
            if q.requires_grad:
                _accumulate(q, merge(np.matmul(gs, kh), sq))
            if k.requires_grad:
                _accumulate(k, merge(np.matmul(gs.swapaxes(-1, -2), qh), sk))

    out = _finish("attention", (q, k, v), out_data, backward)
    return out


def log_softmax(a):
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    out_data = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))

    def backward():
        g = out.grad
        _accumulate(a, g - np.exp(out.data) * g.sum(axis=-1, keepdims=True))

    out = _finish("log_softmax", (a,), out_data, backward)
    return out


def log(a, floor=None):
    """Natural log; with ``floor`` set, computes log(max(x, floor)).

    Below the floor the output is constant, so the gradient there is zero.
    """
    a = _as_tensor(a)
    if floor is None:
        clamped = a.data
    else:
        clamped = np.maximum(a.data, float(floor))
    with np.errstate(divide="ignore", invalid="ignore"):
        out_data = np.log(clamped)

    def backward():
        g = out.grad
        if floor is None:
            _accumulate(a, g / a.data)
        else:
            _accumulate(a, np.where(a.data > floor, g / np.maximum(a.data, floor), 0.0))

    out = _finish("log", (a,), out_data, backward)
    return out


def sigmoid(a):
    a = _as_tensor(a)
    x = a.data
    pos = x >= 0
    out_data = np.empty_like(x)
    out_data[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out_data[~pos] = e / (1.0 + e)

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


def layer_norm(a, gain, bias):
    """Normalize the last axis to zero mean / unit variance, then ``* gain + bias``."""
    a, gain, bias = _as_tensor(a), _as_tensor(gain), _as_tensor(bias)
    d = a.data.shape[-1]
    if d < 1:
        raise ShapeError("layer_norm: last axis is empty")
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(
            f"layer_norm: gain {gain.data.shape} and bias {bias.data.shape} must both be ({d},)"
        )
    # sum / d is ndarray.mean's arithmetic without its per-call Python wrapper
    mean = a.data.sum(axis=-1, keepdims=True) / d
    centered = a.data - mean
    var = (centered * centered).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = centered * inv
    out_data = xhat * gain.data + bias.data

    def backward():
        g = out.grad
        if gain.requires_grad:
            _accumulate(gain, (g * xhat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            _accumulate(bias, g.reshape(-1, d).sum(axis=0))
        if a.requires_grad:
            gx = g * gain.data
            gm = gx.sum(axis=-1, keepdims=True) / d
            gxm = (gx * xhat).sum(axis=-1, keepdims=True) / d
            _accumulate(a, inv * (gx - gm - xhat * gxm))

    out = _finish("layer_norm", (a, gain, bias), out_data, backward)
    return out


def embedding(table, ids):
    """Row lookup: out[...] = table[ids[...], :]."""
    table = _as_tensor(table)
    ids = np.asarray(ids)
    if table.data.ndim != 2:
        raise ShapeError(f"embedding: table must be 2-D, got {table.data.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ShapeError(
            f"embedding: id out of range [0, {table.data.shape[0]}) in lookup"
        )
    out_data = table.data[ids]

    def backward():
        g = out.grad
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.data.shape[1]))
        _accumulate(table, gt)

    out = _finish("embedding", (table,), out_data, backward)
    return out


def take_index(a, ids):
    """Gather along the last axis: out[...] = a[..., ids[...]]."""
    a = _as_tensor(a)
    ids = np.asarray(ids)
    if ids.shape != a.data.shape[:-1]:
        raise ShapeError(
            f"take_index: index shape {ids.shape} must equal data shape {a.data.shape} minus last axis"
        )
    if ids.size and (ids.min() < 0 or ids.max() >= a.data.shape[-1]):
        raise ShapeError(f"take_index: id out of range [0, {a.data.shape[-1]})")
    expanded = ids[..., None]
    out_data = np.take_along_axis(a.data, expanded, axis=-1)[..., 0]

    def backward():
        g = out.grad
        ga = np.zeros_like(a.data)
        # one index per row, so no collisions to accumulate
        np.put_along_axis(ga, expanded, g[..., None], axis=-1)
        _accumulate(a, ga)

    out = _finish("take_index", (a,), out_data, backward)
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


def reduce_sum(a, axis=None):
    a = _as_tensor(a)
    out_data = a.data.sum(axis=axis)

    def backward():
        g = out.grad
        if axis is not None:
            g = np.expand_dims(g, axis=axis)
        _accumulate(a, np.broadcast_to(g, a.data.shape).copy())

    out = _finish("reduce_sum", (a,), out_data, backward)
    return out


def reduce_mean(a, axis=None):
    a = _as_tensor(a)
    count = a.data.size if axis is None else a.data.shape[axis]
    out_data = a.data.mean(axis=axis)

    def backward():
        g = out.grad
        if axis is not None:
            g = np.expand_dims(g, axis=axis)
        _accumulate(a, np.broadcast_to(g, a.data.shape) / count)

    out = _finish("reduce_mean", (a,), out_data, backward)
    return out


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


def check_gradients(fn, params, epsilon=1e-4):
    """Max relative error between taped gradients and central differences.

    ``fn`` maps the parameter dict to a scalar Tensor and must be
    deterministic (run dropout disabled). The relative error per entry is
    |analytic - cd| / max(|analytic|, |cd|, 1e-8).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
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
            flat[i] = orig + epsilon
            plus = fn(params).item()
            flat[i] = orig - epsilon
            minus = fn(params).item()
            flat[i] = orig
            cd = (plus - minus) / (2.0 * epsilon)
            rel = abs(flat_grad[i] - cd) / max(abs(flat_grad[i]), abs(cd), 1e-8)
            if rel > max_rel:
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
            out[name] = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(dims)
    return out
