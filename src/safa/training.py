"""Optimizer, schedule, batching, training loop, and synthetic data.

Steps run one after another. A batch of at least ``2 * SPLIT_MIN_ROWS``
rows runs as two row halves; under one BLAS thread the second runs in a
forked worker process while the first runs here, so that the step uses two
CPUs, and otherwise right after the first. Dropout masks come from two
counter-based Philox streams, one for whole batches and first halves, one
for second halves; epoch shuffles come from a third. So the seed
determines a run: two runs with the same seed and BLAS thread setting
produce bit-identical parameters, and runs at other settings differ only
in BLAS's rounding.
"""

import contextlib
import functools
import math
import mmap
import os
import pickle
from dataclasses import dataclass, field

import numpy as np

from .corpus import BOS_ID, EOS_ID, SubtitleRecord, pad_rows
from .model import LossNormalizers, ModelParameters, TextBatch, VideoFeatureBatch, forward_full
from .tensor import Tape, Tensor, _accumulate, all_finite


class NonFiniteGradientError(ArithmeticError):
    """A parameter gradient went NaN/Inf; training cannot continue."""


@dataclass
class Schedule:
    warmup_steps: int = 2000
    lr_start: float = 1e-7
    lr_peak: float = 5e-3

    def __post_init__(self):
        if self.warmup_steps < 1:
            raise ValueError("warmup_steps must be >= 1")
        if not self.lr_start > 0:
            raise ValueError(f"lr_start must be > 0, got {self.lr_start}")
        if not self.lr_peak > self.lr_start:
            raise ValueError(f"lr_peak must exceed lr_start {self.lr_start}, got {self.lr_peak}")


def lr_at_step(step, schedule):
    """Linear warmup to the peak, then inverse-square-root decay."""
    if step < 1:
        raise ValueError("step must be >= 1")
    if step < schedule.warmup_steps:
        frac = step / schedule.warmup_steps
        return schedule.lr_start + (schedule.lr_peak - schedule.lr_start) * frac
    return schedule.lr_peak * math.sqrt(schedule.warmup_steps / step)


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.98, 1e-8


class AdamState:
    """First/second moment buffers plus the shared step counter."""

    def __init__(self, params):
        self.step_count = 0
        self.first = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.second = {name: np.zeros_like(t.data) for name, t in params.items()}


def _check_clip_norm(clip_norm):
    """A global-norm clip is None (no clipping) or a finite number > 0: 0 freezes, < 0 ascends."""
    if clip_norm is not None and not 0 < clip_norm < math.inf:
        raise ValueError(f"clip_norm must be None or a finite number > 0, got {clip_norm}")


def adam_step(params, state, lr, clip_norm=None):
    """One bias-corrected Adam update, optionally after global-norm clipping.

    A ``None`` gradient reads as zero. Every gradient is reset to ``None``
    afterwards, so the next backward's first write adopts its array.
    """
    if lr <= 0:
        raise ValueError("lr must be positive")
    _check_clip_norm(clip_norm)
    grads = {}
    for name, t in params.items():
        g = t.grad if t.grad is not None else np.zeros_like(t.data)
        if not all_finite(g):
            raise NonFiniteGradientError(f"non-finite gradient in parameter {name!r}")
        grads[name] = g
    if clip_norm is not None:
        with np.errstate(over="ignore"):  # finite entries may still square past the largest float
            total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        if total > clip_norm:
            if total == math.inf:  # the norm of g / largest |g| cannot overflow; divide by both in turn
                largest = max(float(np.abs(g).max(initial=0.0)) for g in grads.values())
                factor = clip_norm / largest / math.sqrt(sum(float(np.square(g / largest).sum())
                                                             for g in grads.values()))
            else:
                factor = clip_norm / total
            grads = {name: g * factor for name, g in grads.items()}
    state.step_count += 1
    t = state.step_count
    bias1 = 1.0 - ADAM_BETA1 ** t
    bias2 = 1.0 - ADAM_BETA2 ** t
    for name, p in params.items():
        g = grads[name]
        m = state.first[name]
        v = state.second[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p.data -= lr * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)
        p.grad = None


@dataclass
class TrainConfig:
    tokens_per_batch: int = 16_000
    max_steps: int = 0            # 0 = epochs bounded only by early stopping
    max_epochs: int = 1_000
    patience: int = 5
    seed: int = 0
    clip_norm: float | None = 1.0
    checkpoint_every: int = 0     # steps between periodic saves; 0 = best only
    schedule: Schedule = field(default_factory=Schedule)

    def __post_init__(self):
        for name, least in (("max_steps", 0), ("max_epochs", 1), ("patience", 1), ("checkpoint_every", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        _check_clip_norm(self.clip_norm)


@dataclass
class TrainingBatch:
    text: TextBatch
    video_ids: list
    record_ids: list


def make_batches(records, src_vocab, tgt_vocab, tokens_per_batch, seed=0, flags_by_id=None):
    """Length-bucketed batching under a max(source, target)-tokens budget.

    Rows are sorted by cost so a batch's widest row bounds its padding; a
    batch closes once (rows + 1) * widest would exceed the budget. Batch
    order is then shuffled by seed. Sentences wider than the budget are
    skipped and reported. Returns (batches, skipped record ids).
    """
    flags_by_id = flags_by_id or {}
    encoded, skipped = [], []
    for r in records:
        src_ids = src_vocab.encode(r.source_text)
        tgt_ids = [BOS_ID] + tgt_vocab.encode(r.target_text) + [EOS_ID]
        cost = max(len(src_ids), len(tgt_ids))
        if cost > tokens_per_batch:
            skipped.append(r.id)
            continue
        encoded.append((cost, r.id, src_ids, tgt_ids, r.video_id))
    encoded.sort(key=lambda row: (row[0], row[1]))

    groups, current = [], []
    for row in encoded:
        if current and (len(current) + 1) * row[0] > tokens_per_batch:
            groups.append(current)
            current = []
        current.append(row)
    if current:
        groups.append(current)

    batches = []
    for group in groups:
        src, src_mask = pad_rows([row[2] for row in group])
        tgt, tgt_mask = pad_rows([row[3] for row in group])
        flags = np.array([flags_by_id.get(row[1], False) for row in group], dtype=bool)
        batches.append(
            TrainingBatch(
                text=TextBatch(src=src, src_mask=src_mask, tgt=tgt, tgt_mask=tgt_mask, flags=flags),
                video_ids=[row[4] for row in group],
                record_ids=[row[1] for row in group],
            )
        )
    order = np.random.default_rng(seed).permutation(len(batches))
    return [batches[i] for i in order], skipped


def evaluate_loss(params, cfg, batches, features):
    """Sample-weighted mean total loss over batches, dropout off."""
    total, count = 0.0, 0
    for batch in batches:
        features_batch = VideoFeatureBatch.stack(batch.video_ids, features)
        _, breakdown = forward_full(batch.text, features_batch, params, cfg)
        total += breakdown.total * batch.text.size
        count += batch.text.size
    return total / count


# OpenBLAS takes its thread count from the first of these that is set; none set means every core
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def blas_threads():
    """The BLAS thread setting of the environment: an int when decimal, None when unset (every core).

    It is read from ``os.environ`` at each call. OpenBLAS read its own
    setting once, when numpy loaded, so a variable set later, a threadpool
    limit set in-process, or a numpy built on another BLAS can make this
    differ from the threads BLAS really uses.
    """
    threads = next((os.environ[name] for name in BLAS_THREAD_ENV if name in os.environ), None)
    return int(threads) if threads is not None and threads.isdecimal() else threads


# A batch splits into two row halves when each holds at least this many rows.
# It is a constant, not a function of the machine, because the split changes
# the trained numbers; README has the timings it rests on.
SPLIT_MIN_ROWS = 128


def _backward(text, video_ids, features, params, cfg, rng, norms=None):
    """Forward and backward of one batch's rows; the gradients land on ``params``. Returns the breakdown."""
    with Tape() as tape:
        _, breakdown = forward_full(
            text, VideoFeatureBatch.stack(video_ids, features), params, cfg,
            training=True, rng=rng, norms=norms,
        )
        tape.backward(breakdown.loss)
    return breakdown


def _losses(breakdown):
    return breakdown.total, breakdown.translation_loss, breakdown.frame_loss


def _second_half(batch, features, arrays, cfg, rng):
    """Forward and backward of a split batch's second half, on its own tensors over the parameter ``arrays``.

    ``arrays`` maps each parameter name to its values. Returns the half's
    (total, translation, frame) losses, which divide by the whole batch's
    counts, and its gradients by name, None for a parameter it did not read.
    """
    text, half = batch.text, batch.text.size // 2
    own = ModelParameters({name: Tensor(data, requires_grad=True) for name, data in arrays.items()})
    second = _backward(text.rows(slice(half, None)), batch.video_ids[half:], features, own, cfg, rng,
                       LossNormalizers.of(text.flags))
    return _losses(second), {name: t.grad for name, t in own.items()}


def _step_backward(batch, features, params, cfg, rngs, start=None):
    """Forward and backward of one training batch; returns its (total, translation, frame) losses.

    Below ``2 * SPLIT_MIN_ROWS`` rows the batch is one ``_backward`` with
    ``rngs[0]``. Otherwise it runs as two row halves, both dividing by the
    whole batch's counts, so that their losses and gradients sum to the
    batch's. The first half runs here with ``rngs[0]`` on ``params``; the
    second is ``_second_half`` with ``rngs[1]`` over the same values, and its
    gradients are then added to the first's. ``start`` only says where the
    second half runs: ``start()`` starts it in a worker while the first runs
    here and returns a function that waits for its losses and gradients;
    without ``start`` it runs here after the first. A half's numbers do not
    depend on the process that runs it, so both give the same result. An
    error of the first half leaves at once, and the caller stops the worker.
    """
    text, video_ids, half = batch.text, batch.video_ids, batch.text.size // 2
    if half < SPLIT_MIN_ROWS:
        return _losses(_backward(text, video_ids, features, params, cfg, rngs[0]))
    finish = start() if start else functools.partial(
        _second_half, batch, features, {name: t.data for name, t in params.items()}, cfg, rngs[1])
    first = _backward(text.rows(slice(half)), video_ids[:half], features, params, cfg, rngs[0],
                      LossNormalizers.of(text.flags))
    losses, gradients = finish()
    for name, g in gradients.items():
        if g is not None:
            _accumulate(params[name], g)
    return tuple(a + b for a, b in zip(_losses(first), losses))


_SIGKILL = 9  # POSIX fixes it; ``os`` names no signals, and ``signal`` is not otherwise loaded


def _outcome(fn, *args):
    """``(True, fn(*args))``, or ``(False, the exception it raised)`` for the caller to raise."""
    try:
        return True, fn(*args)
    except BaseException as exc:
        return False, exc


def _serve(handle, request_fd, answer_fd):
    """The child's side of ``_Child``: answer each request in turn until the end message, then ``os._exit``."""
    status = 1
    try:
        with open(request_fd, "rb") as requests, open(answer_fd, "wb") as answers:
            # each message is (request,), and () at the end; a caller that died without one leaves EOFError
            while message := pickle.load(requests):
                outcome = _outcome(handle, *message)
                try:
                    payload = pickle.dumps(outcome)
                    pickle.loads(payload)  # an exception whose constructor takes other arguments fails here
                except Exception:
                    value = outcome[1]
                    payload = pickle.dumps((False, RuntimeError(f"{type(value).__name__}: {value}")))
                answers.write(payload)
                answers.flush()
        status = 0
    finally:
        os._exit(status)


class _Child:
    """A forked child process that answers ``handle(request)`` for each request sent to it, in order.

    Requests and answers cross two pipes as pickles. ``answer`` returns the
    oldest unanswered request's value or re-raises its exception with its
    type and message (one that does not survive pickling comes back as a
    RuntimeError that names both); when the child ended without answering,
    it reaps the child and raises RuntimeError naming the exit status.
    ``stop`` sends the end of the requests and reaps the child, which then
    leaves on its own, or ends it at once by SIGKILL while it owes an
    answer. The child leaves through ``os._exit``, so it never returns into
    the caller's stack, flushes the caller's stdio buffers or runs exit
    handlers.
    """

    def __init__(self, pid, requests, answers):
        self.pid, self._requests, self._answers = pid, requests, answers
        self._owed = 0

    @classmethod
    def fork(cls, handle):
        """Start a child that serves ``handle``; None where ``os.fork`` is missing or fails."""
        request_read, request_write = os.pipe()
        answer_read, answer_write = os.pipe()
        try:
            pid = os.fork()
        except (AttributeError, OSError):
            for fd in (request_read, request_write, answer_read, answer_write):
                os.close(fd)
            return None
        if pid == 0:
            os.close(request_write)
            os.close(answer_read)
            _serve(handle, request_read, answer_write)
        os.close(request_read)
        os.close(answer_write)
        return cls(pid, open(request_write, "wb"), open(answer_read, "rb"))

    def ask(self, request):
        self._owed += 1
        self._send((request,))

    def _send(self, message):
        try:
            pickle.dump(message, self._requests)
            self._requests.flush()
        except BrokenPipeError:
            pass  # the child has ended; ``answer`` or ``stop`` finds out how

    def answer(self):
        try:
            done, value = pickle.load(self._answers)
        except (EOFError, pickle.UnpicklingError):
            pid, self.pid = self.pid, None
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            raise RuntimeError(f"the forked child ended without a result (exit status {code})") from None
        self._owed -= 1
        if not done:
            raise value
        return value

    def stop(self):
        if self.pid is not None:
            if self._owed:
                os.kill(self.pid, _SIGKILL)
            else:
                self._send(())  # an end message, not EOF: a child forked later may hold the pipe open too
            os.waitpid(self.pid, 0)
            self.pid = None
        with contextlib.suppress(BrokenPipeError):
            self._requests.close()
        self._answers.close()


@contextlib.contextmanager
def _second_half_worker(batches, features, params, cfg, rng):
    """Yield ``start(index)``, which runs the second half of split ``batches[index]`` in a forked worker, or None.

    The worker is forked here once and serves every split step of one
    ``train`` call. Its tensors lie over the parameter values in an
    anonymous shared mapping made before the fork: ``start`` copies
    ``params``' values into it, sends the index and returns a function that
    waits for the half's losses and gradients (see ``_second_half``), which
    the worker writes back into the mapping, and a mask of those it has.
    The worker inherits ``rng`` and is the only process that draws from it.
    It is reaped when the ``with`` block ends, however it ends: killed if
    it is still running a half, as after an error of the first.
    None, so that the second half runs after the first in this process,
    when no batch splits, when BLAS runs other than one thread (two halves
    at once would oversubscribe the CPUs with their BLAS threads), or where
    ``os.fork`` is missing or fails.
    """
    if blas_threads() != 1 or all(b.text.size // 2 < SPLIT_MIN_ROWS for b in batches):
        yield None
        return
    total = sum(t.data.size for _, t in params.items())
    shared = np.frombuffer(mmap.mmap(-1, 2 * total * 8))  # float64 values, then float64 gradients
    cuts = np.cumsum([t.data.size for _, t in params.items()])[:-1]

    def views(flat):
        return {name: part.reshape(t.data.shape) for (name, t), part in zip(params.items(), np.split(flat, cuts))}

    values, gradients = views(shared[:total]), views(shared[total:])

    def second_half(index):
        losses, grads = _second_half(batches[index], features, values, cfg, rng)
        for name, g in grads.items():
            if g is not None:
                gradients[name][...] = g
        return losses, [g is not None for g in grads.values()]

    child = _Child.fork(second_half)
    if child is None:
        yield None
        return

    def start(index):
        for name, t in params.items():
            values[name][...] = t.data
        child.ask(index)

        def finish():
            losses, read = child.answer()
            return losses, {name: g.copy() if has else None for (name, g), has in zip(gradients.items(), read)}

        return finish

    try:
        yield start
    finally:
        child.stop()


@dataclass
class TrainResult:
    params: object            # best-validation parameters
    metrics: list
    best_val_loss: float
    steps: int
    diverged: bool = False
    diverged_reason: str = ""


@np.errstate(over="ignore", invalid="ignore")
def train(params, cfg, train_batches, val_batches, features, train_config,
          checkpoint_callback=None):
    """Forward/backward/Adam loop with per-epoch validation and early stopping.

    Returns the checkpoint with the best validation loss seen; on numeric
    divergence, in a step or at validation, the last good checkpoint comes
    back with ``diverged`` set and the error's text, which names the
    primitive or parameter, in ``diverged_reason``. numpy's overflow and
    invalid-value warnings are silenced: the error already names the place.
    ``checkpoint_callback(step, params)`` fires every ``checkpoint_every``
    steps when that cadence is set. Under one BLAS thread a call whose
    batches split forks one worker for their second halves, and reaps it
    before it returns or raises (see ``_second_half_worker``).
    """
    if not val_batches:
        raise ValueError("validation set must be non-empty")
    tc = train_config
    # the second dropout stream serves only the second half of a split batch, in the worker when there is one
    dropout_rngs = (np.random.Generator(np.random.Philox(tc.seed)),
                    np.random.Generator(np.random.Philox([tc.seed, 3])))
    order_rng = np.random.Generator(np.random.Philox([tc.seed, 1]))
    state = AdamState(params)
    metrics = []
    best = params.copy()
    best_val = math.inf
    bad_evals = 0
    step = 0
    last_step = tc.max_steps or math.inf
    with _second_half_worker(train_batches, features, params, cfg, dropout_rngs[1]) as worker:
        for _epoch in range(tc.max_epochs):
            order = order_rng.permutation(len(train_batches))
            for index in order:
                batch = train_batches[index]
                step += 1
                lr = lr_at_step(step, tc.schedule)
                start = functools.partial(worker, index) if worker else None
                try:
                    total, translation, frame = _step_backward(batch, features, params, cfg, dropout_rngs, start)
                    if not math.isfinite(total):
                        raise NonFiniteGradientError("training loss is not finite")
                    adam_step(params, state, lr, tc.clip_norm)
                except ArithmeticError as exc:  # non-finite values or gradients
                    return TrainResult(best, metrics, best_val, step, diverged=True,
                                       diverged_reason=str(exc))
                if checkpoint_callback and tc.checkpoint_every and step % tc.checkpoint_every == 0:
                    checkpoint_callback(step, params)
                metrics.append(
                    {
                        "step": step,
                        "lr": lr,
                        "train_loss": total,
                        "translation_loss": translation,
                        "frame_loss": frame,
                        "val_loss": None,
                    }
                )
                if step >= last_step:
                    break
            try:
                val = evaluate_loss(params, cfg, val_batches, features)
            except ArithmeticError as exc:  # the last step's update made the forward non-finite
                return TrainResult(best, metrics, best_val, step, diverged=True, diverged_reason=str(exc))
            metrics.append({"step": step, "lr": None, "train_loss": None,
                            "translation_loss": None, "frame_loss": None, "val_loss": val})
            if val < best_val:
                best_val, best, bad_evals = val, params.copy(), 0
            else:
                bad_evals += 1
            if bad_evals >= tc.patience or step >= last_step:
                break
    return TrainResult(best, metrics, best_val, step)


# ---------------------------------------------------------------------------
# Synthetic disambiguation data
# ---------------------------------------------------------------------------

SYNTHETIC_SOURCE = "it is time"
SYNTHETIC_TARGETS = ("class a", "class b")


def central_frame_indices(frames):
    """The middle third of the clip, [frames//3, frames - frames//3)."""
    return np.arange(frames // 3, frames - frames // 3)


def generate_synthetic_dataset(n, frames, feature_dim, seed=0, bump="central"):
    """Balanced two-class corpus where only the video identifies the class.

    Every sample shares one source sentence; the target names the class.
    Features are unit-variance noise plus +2.0 on a class-specific channel
    over the central third of frames (or over the edge frames for the
    control variant). Feature values are rounded to float32 so in-memory
    arrays match the on-disk feature format bit-for-bit.

    Returns (records, features by video id, flags by record id).
    """
    if n % 2 != 0:
        raise ValueError("n must be even so the classes balance exactly")
    if frames < 1:
        raise ValueError(f"frames must be >= 1, got {frames}")
    if feature_dim < 2:
        raise ValueError("feature_dim must be >= 2 (one bump channel per class)")
    if bump not in ("central", "edge"):
        raise ValueError("bump must be 'central' or 'edge'")
    rng = np.random.Generator(np.random.Philox([seed, 2]))
    classes = np.array([0] * (n // 2) + [1] * (n // 2))
    rng.shuffle(classes)
    central = central_frame_indices(frames)
    bumped = central if bump == "central" else np.setdiff1d(np.arange(frames), central)

    records, features, flags = [], {}, {}
    for i, cls in enumerate(classes):
        rid = f"synth-{i:05d}"
        feat = rng.standard_normal((frames, feature_dim))
        feat[bumped, cls] += 2.0
        feat = feat.astype(np.float32).astype(np.float64)
        records.append(
            SubtitleRecord(
                id=rid,
                source_text=SYNTHETIC_SOURCE,
                target_text=SYNTHETIC_TARGETS[cls],
                start_ms=10_000,
                end_ms=12_000,
                video_id=rid,
            )
        )
        features[rid] = feat
        flags[rid] = True
    return records, features, flags


def synthetic_splits(n_train, n_val, n_test, frames, feature_dim, seed=0, bump="central"):
    """``generate_synthetic_dataset`` over all three splits, cut in order.

    Returns ((train, validation, test) records, features, flags).
    """
    for name, count in (("n_train", n_train), ("n_val", n_val), ("n_test", n_test)):
        if count < 0:
            raise ValueError(f"{name} must be >= 0, got {count}")
    records, features, flags = generate_synthetic_dataset(
        n_train + n_val + n_test, frames, feature_dim, seed=seed, bump=bump
    )
    splits = records[:n_train], records[n_train: n_train + n_val], records[n_train + n_val:]
    return splits, features, flags
