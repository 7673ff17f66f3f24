"""Dense float64 tensors with taped reverse-mode differentiation.

Every primitive validates shapes, refuses non-finite outputs, and (when a
Tape is active) records enough to replay the forward pass bit-for-bit and
to run backward once. No fusion, no GPU: values are plain numpy arrays.
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
    __slots__ = ("name", "inputs", "out", "backward", "forward")

    def __init__(self, name, inputs, out, backward, forward):
        self.name = name
        self.inputs = inputs
        self.out = out
        self.backward = backward
        self.forward = forward


class Tape:
    """Ordered record of primitive applications (a Wengert list).

    Entries are appended in execution order, so the list is already a
    topological order; backward walks it once in reverse. ``replay``
    re-executes every recorded forward and returns the recomputed outputs,
    which must be bit-identical to the originals when the leaves are
    untouched.

    The active-tape stack is thread-local: independent recordings may run
    on separate threads, but one tape never spans threads.
    """

    _local = threading.local()

    def __init__(self):
        self.entries = []
        self._backward_done = False

    @classmethod
    def _stack(cls):
        if not hasattr(cls._local, "stack"):
            cls._local.stack = []
        return cls._local.stack

    def __enter__(self):
        Tape._stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        Tape._stack().pop()
        return False

    @classmethod
    def current(cls):
        stack = cls._stack()
        return stack[-1] if stack else None

    def _append(self, name, inputs, out, backward, forward):
        self.entries.append(_Entry(name, inputs, out, backward, forward))

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

    def replay(self):
        """Recompute every recorded output from current leaf data, in order."""
        results = {}

        def resolve(t):
            return results.get(id(t), t.data)

        out = []
        for entry in self.entries:
            data = entry.forward(resolve)
            results[id(entry.out)] = data
            out.append(data)
        return out


def _finish(name, inputs, out_data, backward, forward):
    """Shared tail of every primitive: finiteness check, wrap, record."""
    if not np.all(np.isfinite(out_data)):
        raise NumericError(f"{name}: non-finite values in output")
    out = Tensor(out_data)
    out.requires_grad = any(t.requires_grad for t in inputs)
    tape = Tape.current()
    if tape is not None:
        tape._append(name, inputs, out, backward if out.requires_grad else None, forward)
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
        g = _as_output_grad(out)
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    out = _finish("add", (a, b), out_data, backward, lambda r: r(a) + r(b))
    return out


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out_data = a.data - b.data
    except ValueError:
        raise ShapeError(f"sub: shapes {a.data.shape} and {b.data.shape} do not broadcast") from None

    def backward():
        g = _as_output_grad(out)
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(-g, b.data.shape))

    out = _finish("sub", (a, b), out_data, backward, lambda r: r(a) - r(b))
    return out


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out_data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.data.shape} and {b.data.shape} do not broadcast") from None

    def backward():
        g = _as_output_grad(out)
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    out = _finish("mul", (a, b), out_data, backward, lambda r: r(a) * r(b))
    return out


def scale(a, factor):
    a = _as_tensor(a)
    factor = float(factor)
    out_data = a.data * factor

    def backward():
        _accumulate(a, _as_output_grad(out) * factor)

    out = _finish("scale", (a,), out_data, backward, lambda r: r(a) * factor)
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
        g = _as_output_grad(out)
        if a.requires_grad:
            ga = _matmul_data(g, np.swapaxes(b.data, -1, -2))
            _accumulate(a, _unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            if b.data.ndim == 2:
                gb = a.data.reshape(-1, a.data.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            else:
                gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape)
            _accumulate(b, gb)

    out = _finish("matmul", (a, b), out_data, backward, lambda r: _matmul_data(r(a), r(b)))
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
        _accumulate(a, np.transpose(_as_output_grad(out), inverse))

    out = _finish("transpose", (a,), out_data, backward, lambda r: np.transpose(r(a), axes))
    return out


def reshape(a, shape):
    a = _as_tensor(a)
    shape = tuple(shape)
    out_data = a.data.reshape(shape)
    orig = a.data.shape

    def backward():
        _accumulate(a, _as_output_grad(out).reshape(orig))

    out = _finish("reshape", (a,), out_data, backward, lambda r: r(a).reshape(shape))
    return out


def _softmax_data(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax(a):
    """Softmax over the last axis."""
    a = _as_tensor(a)
    out_data = _softmax_data(a.data)

    def backward():
        g = _as_output_grad(out)
        s = out.data
        _accumulate(a, s * (g - (g * s).sum(axis=-1, keepdims=True)))

    out = _finish("softmax", (a,), out_data, backward, lambda r: _softmax_data(r(a)))
    return out


def _log_softmax_data(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def log_softmax(a):
    a = _as_tensor(a)
    out_data = _log_softmax_data(a.data)

    def backward():
        g = _as_output_grad(out)
        _accumulate(a, g - np.exp(out.data) * g.sum(axis=-1, keepdims=True))

    out = _finish("log_softmax", (a,), out_data, backward, lambda r: _log_softmax_data(r(a)))
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
        g = _as_output_grad(out)
        if floor is None:
            _accumulate(a, g / a.data)
        else:
            _accumulate(a, np.where(a.data > floor, g / np.maximum(a.data, floor), 0.0))

    def forward(r):
        x = r(a)
        return np.log(x if floor is None else np.maximum(x, float(floor)))

    out = _finish("log", (a,), out_data, backward, forward)
    return out


def _sigmoid_data(x):
    pos = x >= 0
    z = np.empty_like(x)
    z[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    z[~pos] = e / (1.0 + e)
    return z


def sigmoid(a):
    a = _as_tensor(a)
    out_data = _sigmoid_data(a.data)

    def backward():
        s = out.data
        _accumulate(a, _as_output_grad(out) * s * (1.0 - s))

    out = _finish("sigmoid", (a,), out_data, backward, lambda r: _sigmoid_data(r(a)))
    return out


def relu(a):
    a = _as_tensor(a)
    out_data = np.maximum(a.data, 0.0)

    def backward():
        _accumulate(a, _as_output_grad(out) * (a.data > 0))

    out = _finish("relu", (a,), out_data, backward, lambda r: np.maximum(r(a), 0.0))
    return out


_LN_EPS = 1e-5


def _layer_norm_data(x, eps):
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    return centered * inv, inv


def layer_norm(a, eps=_LN_EPS):
    """Normalize the last axis to zero mean / unit variance (no affine)."""
    a = _as_tensor(a)
    if a.data.shape[-1] < 1:
        raise ShapeError("layer_norm: last axis is empty")
    out_data, inv = _layer_norm_data(a.data, eps)

    def backward():
        g = _as_output_grad(out)
        xhat = out.data
        n = a.data.shape[-1]
        gm = g.mean(axis=-1, keepdims=True)
        gxm = (g * xhat).mean(axis=-1, keepdims=True)
        _accumulate(a, inv * (g - gm - xhat * gxm))

    out = _finish("layer_norm", (a,), out_data, backward, lambda r: _layer_norm_data(r(a), eps)[0])
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
        g = _as_output_grad(out)
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.data.shape[1]))
        _accumulate(table, gt)

    out = _finish("embedding", (table,), out_data, backward, lambda r: r(table)[ids])
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
        g = _as_output_grad(out)
        ga = np.zeros_like(a.data)
        # one index per row, so no collisions to accumulate
        np.put_along_axis(ga, expanded, g[..., None], axis=-1)
        _accumulate(a, ga)

    out = _finish(
        "take_index", (a,), out_data, backward,
        lambda r: np.take_along_axis(r(a), expanded, axis=-1)[..., 0],
    )
    return out


def concat(tensors, axis=-1):
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat: need at least one input")
    try:
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        raise ShapeError(
            f"concat: shapes {[t.data.shape for t in tensors]} do not align on axis {axis}"
        ) from None
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward():
        pieces = np.split(_as_output_grad(out), splits, axis=axis)
        for t, piece in zip(tensors, pieces):
            _accumulate(t, piece)

    out = _finish(
        "concat", tuple(tensors), out_data, backward,
        lambda r: np.concatenate([r(t) for t in tensors], axis=axis),
    )
    return out


def masked_fill(a, mask, value):
    """Replace entries where mask is True with a constant; grad is zero there."""
    a = _as_tensor(a)
    mask = np.asarray(mask, dtype=bool)
    value = float(value)
    try:
        np.broadcast_shapes(mask.shape, a.data.shape)
    except ValueError:
        raise ShapeError(
            f"masked_fill: mask shape {mask.shape} does not broadcast to {a.data.shape}"
        ) from None
    out_data = np.where(mask, value, a.data)
    if out_data.shape != a.data.shape:
        raise ShapeError(
            f"masked_fill: mask shape {mask.shape} must not widen data shape {a.data.shape}"
        )

    def backward():
        _accumulate(a, np.where(mask, 0.0, _as_output_grad(out)))

    out = _finish("masked_fill", (a,), out_data, backward, lambda r: np.where(mask, value, r(a)))
    return out


def dropout(a, rate, mask):
    """Inverted dropout with a caller-supplied keep mask (True keeps).

    rate 0 is the identity. The mask is stored with the recorded step so a
    replay reuses the exact draw.
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
        _accumulate(a, _as_output_grad(out) * mask / keep)

    out = _finish("dropout", (a,), out_data, backward, lambda r: r(a) * mask / keep)
    return out


def reduce_sum(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward():
        g = _as_output_grad(out)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
        _accumulate(a, np.broadcast_to(g, a.data.shape).copy())

    out = _finish(
        "reduce_sum", (a,), out_data, backward,
        lambda r: r(a).sum(axis=axis, keepdims=keepdims),
    )
    return out


def reduce_mean(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    if axis is None:
        count = a.data.size
    elif isinstance(axis, tuple):
        count = int(np.prod([a.data.shape[ax] for ax in axis]))
    else:
        count = a.data.shape[axis]
    out_data = a.data.mean(axis=axis, keepdims=keepdims)

    def backward():
        g = _as_output_grad(out)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
        _accumulate(a, np.broadcast_to(g, a.data.shape) / count)

    out = _finish(
        "reduce_mean", (a,), out_data, backward,
        lambda r: r(a).mean(axis=axis, keepdims=keepdims),
    )
    return out


def _as_output_grad(out):
    return out.grad if out.grad is not None else np.zeros_like(out.data)


# Dispatch table: primitive name -> adapter over (inputs, attrs).
PRIMITIVES = {
    "add": lambda inputs, attrs: add(*inputs),
    "sub": lambda inputs, attrs: sub(*inputs),
    "mul": lambda inputs, attrs: mul(*inputs),
    "scale": lambda inputs, attrs: scale(inputs[0], attrs["factor"]),
    "matmul": lambda inputs, attrs: matmul(*inputs),
    "transpose": lambda inputs, attrs: transpose(inputs[0], attrs.get("axes")),
    "reshape": lambda inputs, attrs: reshape(inputs[0], attrs["shape"]),
    "softmax": lambda inputs, attrs: softmax(inputs[0]),
    "log_softmax": lambda inputs, attrs: log_softmax(inputs[0]),
    "log": lambda inputs, attrs: log(inputs[0], attrs.get("floor")),
    "sigmoid": lambda inputs, attrs: sigmoid(inputs[0]),
    "relu": lambda inputs, attrs: relu(inputs[0]),
    "layer_norm": lambda inputs, attrs: layer_norm(inputs[0], attrs.get("eps", _LN_EPS)),
    "embedding": lambda inputs, attrs: embedding(inputs[0], attrs["ids"]),
    "take_index": lambda inputs, attrs: take_index(inputs[0], attrs["ids"]),
    "concat": lambda inputs, attrs: concat(inputs, attrs.get("axis", -1)),
    "masked_fill": lambda inputs, attrs: masked_fill(inputs[0], attrs["mask"], attrs["value"]),
    "dropout": lambda inputs, attrs: dropout(inputs[0], attrs["rate"], attrs.get("mask")),
    "reduce_sum": lambda inputs, attrs: reduce_sum(inputs[0], attrs.get("axis"), attrs.get("keepdims", False)),
    "reduce_mean": lambda inputs, attrs: reduce_mean(inputs[0], attrs.get("axis"), attrs.get("keepdims", False)),
}


def forward_primitive(name, inputs, attrs=None):
    """Apply a primitive by name; records on the active tape like the direct call."""
    if name not in PRIMITIVES:
        raise ShapeError(f"unknown primitive {name!r}")
    return PRIMITIVES[name](inputs, attrs or {})


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
