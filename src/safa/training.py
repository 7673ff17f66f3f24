"""Optimizer, schedule, batching, training loop, and synthetic data.

Training is strictly sequential and fully determined by the seed: dropout
masks come from one counter-based Philox stream, epoch shuffles from a
second, so two runs with the same seed produce bit-identical parameters.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import BOS_ID, EOS_ID, pad_rows
from .model import TextBatch, VideoFeatureBatch, forward_full
from .tensor import Tape


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
        if not 0 < self.lr_start < self.lr_peak:
            raise ValueError("need 0 < lr_start < lr_peak")


def lr_at_step(step, schedule):
    """Linear warmup to the peak, then inverse-square-root decay."""
    if step < 1:
        raise ValueError("step must be >= 1")
    if step < schedule.warmup_steps:
        frac = step / schedule.warmup_steps
        return schedule.lr_start + (schedule.lr_peak - schedule.lr_start) * frac
    return schedule.lr_peak * math.sqrt(schedule.warmup_steps / step)


class AdamState:
    """First/second moment buffers plus the shared step counter."""

    def __init__(self, params, beta1=0.9, beta2=0.98, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self.first = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.second = {name: np.zeros_like(t.data) for name, t in params.items()}


def adam_step(params, state, lr, clip_norm=None):
    """One bias-corrected Adam update, optionally after global-norm clipping."""
    if lr <= 0:
        raise ValueError("lr must be positive")
    grads = {}
    for name, t in params.items():
        g = t.grad if t.grad is not None else np.zeros_like(t.data)
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError(f"non-finite gradient in parameter {name!r}")
        grads[name] = g
    if clip_norm is not None:
        total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        if total > clip_norm:
            factor = clip_norm / total
            grads = {name: g * factor for name, g in grads.items()}
    state.step_count += 1
    t = state.step_count
    bias1 = 1.0 - state.beta1 ** t
    bias2 = 1.0 - state.beta2 ** t
    for name, p in params.items():
        g = grads[name]
        m = state.first[name]
        v = state.second[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p.data -= lr * (m / bias1) / (np.sqrt(v / bias2) + state.eps)


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


def _feature_batch(batch, features):
    return VideoFeatureBatch.stack(batch.video_ids, features)


def evaluate_loss(params, cfg, batches, features):
    """Sample-weighted mean total loss over batches, dropout off."""
    total, count = 0.0, 0
    for batch in batches:
        _, breakdown = forward_full(batch.text, _feature_batch(batch, features), params, cfg)
        total += breakdown.total * batch.text.size
        count += batch.text.size
    return total / count


@dataclass
class TrainResult:
    params: object            # best-validation parameters
    metrics: list
    best_val_loss: float
    steps: int
    diverged: bool = False
    diverged_reason: str = ""


def train(params, cfg, train_batches, val_batches, features, train_config,
          checkpoint_callback=None):
    """Forward/backward/Adam loop with per-epoch validation and early stopping.

    Returns the checkpoint with the best validation loss seen; on numeric
    divergence the last good checkpoint comes back with ``diverged`` set and
    the error's text, which names the primitive or parameter, in
    ``diverged_reason``.
    ``checkpoint_callback(step, params)`` fires every ``checkpoint_every``
    steps when that cadence is set.
    """
    if not val_batches:
        raise ValueError("validation set must be non-empty")
    tc = train_config
    dropout_rng = np.random.Generator(np.random.Philox(tc.seed))
    order_rng = np.random.Generator(np.random.Philox([tc.seed, 1]))
    state = AdamState(params)
    metrics = []
    best = params.copy()
    best_val = math.inf
    bad_evals = 0
    step = 0

    def run_validation():
        nonlocal best, best_val, bad_evals
        val = evaluate_loss(params, cfg, val_batches, features)
        improved = val < best_val
        if improved:
            best_val = val
            best = params.copy()
            bad_evals = 0
        else:
            bad_evals += 1
        return val, improved

    for _epoch in range(tc.max_epochs):
        order = order_rng.permutation(len(train_batches))
        for index in order:
            batch = train_batches[index]
            step += 1
            lr = lr_at_step(step, tc.schedule)
            params.zero_grad()
            try:
                with Tape() as tape:
                    _, breakdown = forward_full(
                        batch.text, _feature_batch(batch, features), params, cfg,
                        training=True, rng=dropout_rng,
                    )
                    tape.backward(breakdown.loss)
                if not math.isfinite(breakdown.total):
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
                    "train_loss": breakdown.total,
                    "translation_loss": breakdown.translation_loss,
                    "frame_loss": breakdown.frame_loss,
                    "val_loss": None,
                }
            )
            if tc.max_steps and step >= tc.max_steps:
                val, _ = run_validation()
                metrics.append(_val_record(step, val))
                return TrainResult(best, metrics, best_val, step)
        val, _ = run_validation()
        metrics.append(_val_record(step, val))
        if bad_evals >= tc.patience:
            break
    return TrainResult(best, metrics, best_val, step)


def _val_record(step, val):
    return {
        "step": step, "lr": None, "train_loss": None,
        "translation_loss": None, "frame_loss": None, "val_loss": val,
    }


def save_metrics(path, metrics):
    with open(path, "w", encoding="utf-8") as f:
        for row in metrics:
            f.write(json.dumps(row, sort_keys=True) + "\n")


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
    from .corpus import SubtitleRecord

    if n % 2 != 0:
        raise ValueError("n must be even so the classes balance exactly")
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
