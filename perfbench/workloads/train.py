"""train: ``safa.training.train()`` on the synthetic disambiguation defaults.

2000 train / 200 validation samples of 12 frames x 16 dims, d_model 32,
2+2 layers, a 2000-token budget (500-row batches) and dropout 0.1, exactly
the ``SyntheticExperiment`` defaults. One operation is one ``train()`` call
of ``STEPS`` steps (whole epochs), repeated with consecutive training seeds
until the run's time is up. Step times come from outside, through
``checkpoint_callback`` with ``checkpoint_every=1``.
"""

import json
import math
import os
import time

from harness import Stat, closed_loop, has_tail

from safa import evaluation, model, training
from safa.corpus import build_vocabulary

UNIT = "train step"
STEPS = 24          # six epochs of the four training batches
REFERENCE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "reference", "train.json")


class State:
    pass


def build(seed):
    """The generated dataset, vocabularies and model config for one seed."""
    exp = evaluation.SyntheticExperiment()
    records, features, flags = training.generate_synthetic_dataset(
        exp.n_train + exp.n_val, exp.frames, exp.feature_dim, seed=seed, bump=exp.bump
    )
    s = State()
    s.seed, s.exp, s.features, s.flags = seed, exp, features, flags
    s.train_records = records[: exp.n_train]
    s.val_records = records[exp.n_train:]
    s.src_vocab = build_vocabulary(s.train_records, "source", min_count=1)
    s.tgt_vocab = build_vocabulary(s.train_records, "target", min_count=1)
    s.cfg = model.ModelConfig(
        src_vocab_size=len(s.src_vocab), tgt_vocab_size=len(s.tgt_vocab),
        video_feature_dim=exp.feature_dim, encoder_layers=exp.layers,
        decoder_layers=exp.layers, d_model=exp.d_model, d_ffn=exp.d_ffn,
        heads=exp.heads, dropout=exp.dropout, frames_per_clip=exp.frames,
        temperature=exp.temperature, frame_loss_weight=exp.frame_loss_weight,
        ambiguity_weight=exp.ambiguity_weight,
    )
    return s


def setup(seed, ctx):
    s = build(seed)
    with open(REFERENCE, encoding="utf-8") as f:
        s.reference = json.load(f)
    return s


def train_once(s, train_seed, recorder=None):
    """One operation: batch, build parameters, train STEPS steps.

    Returns ((start, end) of the train() call, (start, end) per step,
    trained target tokens, result).
    """
    exp = s.exp
    train_batches, _ = training.make_batches(
        s.train_records, s.src_vocab, s.tgt_vocab, exp.tokens_per_batch,
        seed=train_seed, flags_by_id=s.flags,
    )
    val_batches, _ = training.make_batches(
        s.val_records, s.src_vocab, s.tgt_vocab, exp.tokens_per_batch,
        seed=train_seed, flags_by_id=s.flags,
    )
    if STEPS % len(train_batches):
        raise RuntimeError(f"{STEPS} steps are not whole epochs of {len(train_batches)} batches")
    params = model.ModelParameters.build(s.cfg, seed=train_seed)
    tc = training.TrainConfig(
        tokens_per_batch=exp.tokens_per_batch, max_steps=STEPS, patience=exp.patience,
        seed=train_seed, checkpoint_every=1,
        schedule=training.Schedule(exp.warmup_steps, exp.lr_start, exp.lr_peak),
    )
    marks = []
    start = time.perf_counter()
    result = training.train(
        params, s.cfg, train_batches, val_batches, s.features, tc,
        checkpoint_callback=lambda step, current: marks.append(time.perf_counter()),
    )
    call = (start, time.perf_counter())
    steps = list(zip([start] + marks, marks))
    epoch_tokens = sum(int(b.text.tgt_mask[:, 1:].sum()) for b in train_batches)
    tokens = epoch_tokens * (STEPS // len(train_batches))
    if recorder is not None and recorder.tracer is not None:
        counts = recorder.tracer.counts
        for b in train_batches:
            for mask in (b.text.src_mask, b.text.tgt_mask):
                counts["training.pad_slots"] += int(mask.size - mask.sum())
                counts["training.token_slots"] += int(mask.size)
    return call, steps, tokens, result


def final_val_loss(result):
    rows = [r for r in result.metrics if r["val_loss"] is not None]
    return rows[-1]["val_loss"] if rows else math.nan


def check(result, reference):
    """(failed steps, incorrect): every step loss finite, final loss in the recorded band."""
    losses = [r["train_loss"] for r in result.metrics if r["train_loss"] is not None]
    failed = STEPS - sum(1 for x in losses if math.isfinite(x))
    final = final_val_loss(result)
    in_band = math.isfinite(final) and abs(final - reference["mean"]) <= reference["tolerance"]
    incorrect = failed > 0 or not in_band or result.diverged
    if not in_band and failed == 0:
        failed = 1
    return failed, incorrect


def run(s, seconds, recorder):
    steps, calls, tokens, finals = [], [], 0, []
    attempted = failed = incorrect = 0
    for i in closed_loop(seconds, min_ops=2 if recorder.tracer else 1):
        with recorder.op("train", units=STEPS) as op:
            call, call_steps, n_tokens, result = train_once(s, s.seed + i, recorder)
        if not op["traced"]:
            calls.append(call)
            steps.extend(call_steps)
            tokens += n_tokens
        bad, wrong = check(result, s.reference)
        attempted += STEPS
        failed += bad
        incorrect += wrong
        finals.append(final_val_loss(result))
    stats = {
        "train.tokens_per_s": Stat("1/s", calls, "rate", work=tokens),
        "train.step_ms_p50": Stat("ms", steps, 50, 1000.0),
    }
    if has_tail(len(steps), 90):
        stats["train.step_ms_p90"] = Stat("ms", steps, 90, 1000.0)
    return {
        "attempted": attempted, "failed": failed, "incorrect": incorrect, "stats": stats,
        "op": "train.step_ms_p50", "work": "train.tokens_per_s",
        "details": {"final_val_losses": finals},
    }
