import functools
import math
import os

import numpy as np
import pytest

from safa import training
from safa.corpus import BOS_ID, EOS_ID, SubtitleRecord, build_vocabulary
from safa.model import ModelConfig, ModelParameters, VideoFeatureBatch, forward_full
from safa.tensor import Tape, Tensor, lerp, weighted_sum
from safa.training import (
    SPLIT_MIN_ROWS,
    AdamState,
    NonFiniteGradientError,
    Schedule,
    TrainConfig,
    adam_step,
    central_frame_indices,
    generate_synthetic_dataset,
    lr_at_step,
    make_batches,
    train,
)


# ---------------------------------------------------------------------------
# Learning-rate schedule
# ---------------------------------------------------------------------------


def test_lr_pinned_values():
    sched = Schedule()
    assert lr_at_step(2000, sched) == 5e-3
    assert lr_at_step(8000, sched) == 2.5e-3
    assert lr_at_step(1, sched) == 1e-7 + (5e-3 - 1e-7) / 2000


def test_lr_continuous_at_warmup_boundary():
    sched = Schedule(warmup_steps=100, lr_start=1e-6, lr_peak=1e-2)
    assert lr_at_step(100, sched) == sched.lr_peak
    assert lr_at_step(99, sched) < sched.lr_peak
    assert lr_at_step(101, sched) < sched.lr_peak


def test_lr_rejects_step_zero():
    with pytest.raises(ValueError):
        lr_at_step(0, Schedule())


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule(warmup_steps=0)
    with pytest.raises(ValueError):
        Schedule(lr_start=1e-2, lr_peak=1e-3)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def _toy_params(values):
    return {name: Tensor(np.asarray(v, dtype=np.float64), requires_grad=True) for name, v in values.items()}


def test_adam_zero_gradients_leave_parameters():
    # a gradient that is None reads as zero
    params = _toy_params({"w": [1.0, -2.0], "z": [3.0]})
    params["z"].grad = np.zeros(1)
    state = AdamState(params)
    adam_step(params, state, lr=0.1)
    np.testing.assert_array_equal(params["w"].data, [1.0, -2.0])
    np.testing.assert_array_equal(params["z"].data, [3.0])


def test_adam_first_step_is_signed_lr():
    params = _toy_params({"w": [1.0, 1.0]})
    params["w"].grad = np.array([0.5, -3.0])
    state = AdamState(params)
    adam_step(params, state, lr=0.1, clip_norm=None)
    # bias-corrected first step moves by ~lr against the gradient sign
    np.testing.assert_allclose(params["w"].data, [1.0 - 0.1, 1.0 + 0.1], atol=1e-6)
    # the step consumes the gradient: the next backward's first write adopts its array
    assert params["w"].grad is None


def test_adam_converges_on_square():
    params = _toy_params({"x": [5.0]})
    state = AdamState(params)
    for _ in range(100):
        with Tape() as tape:
            loss = weighted_sum(lerp(np.zeros(1), params["x"], params["x"]), np.ones(1))  # x * x
            tape.backward(loss)
        adam_step(params, state, lr=0.1, clip_norm=None)
    assert abs(params["x"].data[0]) < 0.5


def test_adam_rejects_non_finite_gradient():
    params = _toy_params({"fine": [1.0], "broken": [1.0]})
    params["fine"].grad = np.array([0.1])
    params["broken"].grad = np.array([np.nan])
    with pytest.raises(NonFiniteGradientError, match="broken"):
        adam_step(params, AdamState(params), lr=0.1)


@pytest.mark.parametrize("clip_norm", [-1.0, 0.0, math.nan, math.inf])
def test_adam_rejects_a_clip_norm_that_is_not_finite_and_positive(clip_norm):
    # -1 would scale the gradient by -0.5 and ascend (w 1.0 -> 1.1); 0 would freeze w
    params = _toy_params({"w": [1.0]})
    params["w"].grad = np.array([2.0])
    state = AdamState(params)
    with pytest.raises(ValueError, match="clip_norm must be None or a finite number > 0"):
        adam_step(params, state, lr=0.1, clip_norm=clip_norm)
    assert params["w"].data[0] == 1.0 and state.step_count == 0


def test_adam_global_norm_clip():
    params = _toy_params({"w": [0.0, 0.0]})
    params["w"].grad = np.array([30.0, 40.0])  # norm 50
    state = AdamState(params)
    adam_step(params, state, lr=1.0, clip_norm=1.0)
    # after clipping, effective gradient is (0.6, 0.8); Adam normalizes by
    # sqrt(second moment), so both coordinates move by ~lr
    assert np.all(np.abs(params["w"].data) < 1.01)
    np.testing.assert_allclose(state.first["w"] / 0.1, [0.6, 0.8], atol=1e-12)


def test_adam_clips_a_finite_gradient_whose_squares_overflow():
    # its squared norm reads inf, which would make the clip factor 0 and drop the step
    params = _toy_params({"w": [0.0, 0.0], "z": [0.0]})
    params["w"].grad = np.array([1e200, -1e200])
    params["z"].grad = np.array([1.0])
    state = AdamState(params)
    adam_step(params, state, lr=0.1, clip_norm=1.0)
    np.testing.assert_allclose(state.first["w"] / 0.1, [math.sqrt(0.5), -math.sqrt(0.5)], rtol=1e-15)
    np.testing.assert_allclose(state.first["z"] / 0.1, [math.sqrt(0.5) * 1e-200], rtol=1e-15)
    np.testing.assert_allclose(params["w"].data, [-0.1, 0.1], rtol=1e-7)  # ADAM_EPS shortens it by 1.4e-8
    # the same direction at a norm that does not overflow takes the same step
    small = _toy_params({"w": [0.0, 0.0], "z": [0.0]})
    small["w"].grad = np.array([1e100, -1e100])
    small["z"].grad = np.array([1e-100])
    small_state = AdamState(small)
    adam_step(small, small_state, lr=0.1, clip_norm=1.0)
    for name in ("w", "z"):
        np.testing.assert_allclose(state.first[name], small_state.first[name], rtol=1e-15)
        np.testing.assert_allclose(params[name].data, small[name].data, rtol=1e-15)


# ---------------------------------------------------------------------------
# Batching
# ---------------------------------------------------------------------------


def _records(sentences):
    return [
        SubtitleRecord(
            id=f"r{i:03d}", source_text=src, target_text=tgt,
            start_ms=1000, end_ms=2000, video_id=f"v{i:03d}",
        )
        for i, (src, tgt) in enumerate(sentences)
    ]


def _vocabs(records):
    return (
        build_vocabulary(records, "source", min_count=1),
        build_vocabulary(records, "target", min_count=1),
    )


def test_make_batches_single_batch():
    records = _records([("a " * 10, "b")] * 3)
    src_vocab, tgt_vocab = _vocabs(records)
    batches, skipped = make_batches(records, src_vocab, tgt_vocab, 16_000, seed=0)
    assert skipped == []
    assert len(batches) == 1
    assert batches[0].text.src.shape == (3, 10)


def test_make_batches_cap_arithmetic():
    # source cost 10 dominates (targets are short), so cap 20 fits 2 rows
    records = _records([("w " * 10, "t")] * 7)
    src_vocab, tgt_vocab = _vocabs(records)
    batches, _ = make_batches(records, src_vocab, tgt_vocab, 20, seed=0)
    assert all(b.text.src.shape[0] <= 2 for b in batches)
    assert sum(b.text.src.shape[0] for b in batches) == 7


def test_make_batches_adds_bos_eos_and_masks():
    records = _records([("x y", "p q r")])
    src_vocab, tgt_vocab = _vocabs(records)
    batches, _ = make_batches(records, src_vocab, tgt_vocab, 100, seed=0)
    tgt = batches[0].text.tgt[0]
    assert tgt[0] == BOS_ID and tgt[-1] == EOS_ID
    assert batches[0].text.tgt_mask.all()


def test_make_batches_budget_never_exceeded():
    rng = np.random.default_rng(0)
    records = _records(
        [("s " * int(rng.integers(1, 12)), "t " * int(rng.integers(1, 12))) for _ in range(60)]
    )
    src_vocab, tgt_vocab = _vocabs(records)
    budget = 40
    batches, _ = make_batches(records, src_vocab, tgt_vocab, budget, seed=1)
    for b in batches:
        rows = b.text.src.shape[0]
        widest = max(b.text.src.shape[1], b.text.tgt.shape[1])
        assert rows * widest <= budget


def test_make_batches_skips_oversized_sentence():
    records = _records([("w " * 30, "t"), ("a b", "c")])
    src_vocab, tgt_vocab = _vocabs(records)
    batches, skipped = make_batches(records, src_vocab, tgt_vocab, 10, seed=0)
    assert skipped == ["r000"]
    assert sum(b.text.src.shape[0] for b in batches) == 1


def test_make_batches_deterministic():
    records = _records([(f"s{i} tok", f"t{i}") for i in range(20)])
    src_vocab, tgt_vocab = _vocabs(records)
    a, _ = make_batches(records, src_vocab, tgt_vocab, 12, seed=9)
    b, _ = make_batches(records, src_vocab, tgt_vocab, 12, seed=9)
    assert [x.record_ids for x in a] == [x.record_ids for x in b]
    c, _ = make_batches(records, src_vocab, tgt_vocab, 12, seed=10)
    assert [x.record_ids for x in a] != [x.record_ids for x in c]


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def _tiny_setup(seed=0, n=8, frames=3, feature_dim=2, dropout=0.1):
    records, features, flags = generate_synthetic_dataset(n, frames, feature_dim, seed=seed)
    src_vocab = build_vocabulary(records, "source", min_count=1)
    tgt_vocab = build_vocabulary(records, "target", min_count=1)
    cfg = ModelConfig(
        src_vocab_size=len(src_vocab), tgt_vocab_size=len(tgt_vocab),
        video_feature_dim=feature_dim, encoder_layers=1, decoder_layers=1,
        d_model=8, d_ffn=16, heads=2, dropout=dropout, frames_per_clip=frames,
    )
    batches, _ = make_batches(records, src_vocab, tgt_vocab, 64, seed=seed, flags_by_id=flags)
    return cfg, batches, features


def _wide_setup(rows=2 * SPLIT_MIN_ROWS + 1, dropout=0.0, seed=0):
    """One batch of ``rows`` sentences of 1-6 source and 1-5 target words, a third of them flagged."""
    rng = np.random.default_rng(seed)
    records = _records([(" ".join(f"s{w}" for w in rng.integers(0, 9, int(rng.integers(1, 7)))),
                         " ".join(f"t{w}" for w in rng.integers(0, 9, int(rng.integers(1, 6)))))
                        for _ in range(rows)])
    features = {r.video_id: rng.normal(size=(3, 2)) for r in records}
    flags = {r.id: i % 3 == 0 for i, r in enumerate(records)}
    src_vocab, tgt_vocab = _vocabs(records)
    batches, _ = make_batches(records, src_vocab, tgt_vocab, 10 * rows, seed=seed, flags_by_id=flags)
    cfg = ModelConfig(
        src_vocab_size=len(src_vocab), tgt_vocab_size=len(tgt_vocab), video_feature_dim=2,
        encoder_layers=1, decoder_layers=1, d_model=8, d_ffn=16, heads=2, dropout=dropout, frames_per_clip=3,
    )
    return cfg, batches, features


def _blas_threads(monkeypatch, value):
    """Set OpenBLAS's thread variable to ``value`` (None unsets it), unsetting the other two."""
    for name in training.BLAS_THREAD_ENV:
        monkeypatch.delenv(name, raising=False)
    if value is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", value)


def test_train_two_runs_bit_identical():
    cfg, batches, features = _tiny_setup()
    tc = TrainConfig(max_steps=6, seed=4, patience=2, schedule=Schedule(warmup_steps=10, lr_peak=1e-3))
    results = []
    for _ in range(2):
        params = ModelParameters.build(cfg, seed=4)
        results.append(train(params, cfg, batches, batches[:1], features, tc))
    for name, t in results[0].params.items():
        assert t.data.tobytes() == results[1].params[name].data.tobytes(), name
    assert results[0].best_val_loss == results[1].best_val_loss
    assert results[0].metrics == results[1].metrics


def test_train_metrics_log_shape():
    cfg, batches, features = _tiny_setup()
    tc = TrainConfig(max_steps=3, seed=0, schedule=Schedule(warmup_steps=10, lr_peak=1e-3))
    params = ModelParameters.build(cfg, seed=0)
    result = train(params, cfg, batches, batches[:1], features, tc)
    step_rows = [m for m in result.metrics if m["train_loss"] is not None]
    val_rows = [m for m in result.metrics if m["val_loss"] is not None]
    assert len(step_rows) == 3 and len(val_rows) >= 1
    # each step's Adam update clears the gradients it read
    assert [name for name, t in params.items() if t.grad is not None] == []
    assert {"step", "lr", "train_loss", "translation_loss", "frame_loss", "val_loss"} <= set(step_rows[0])


def test_early_stopping_patience_one(monkeypatch):
    cfg, batches, features = _tiny_setup(dropout=0.0)
    fake_vals = iter([1.0, 2.0, 3.0, 4.0])
    evals = []

    def fake_eval(params, c, b, f):
        v = next(fake_vals)
        evals.append(v)
        return v

    monkeypatch.setattr(training, "evaluate_loss", fake_eval)
    tc = TrainConfig(patience=1, seed=0, max_epochs=50, schedule=Schedule(warmup_steps=10, lr_peak=1e-4))
    params = ModelParameters.build(cfg, seed=1)
    initial = {name: t.data.copy() for name, t in params.items()}
    result = train(params, cfg, batches, batches[:1], features, tc)
    # worsening validation: stops after the second evaluation
    assert evals == [1.0, 2.0]
    assert result.best_val_loss == 1.0
    # best checkpoint is the one evaluated at 1.0, not the later weights
    changed = [n for n, t in result.params.items() if not np.array_equal(t.data, initial[n])]
    assert changed  # training did move parameters before the first eval


def test_early_stopping_keeps_best(monkeypatch):
    cfg, batches, features = _tiny_setup(dropout=0.0)
    vals = iter([3.0, 1.0, 2.0, 2.5, 2.6])

    def fake_eval(params, c, b, f):
        return next(vals)

    monkeypatch.setattr(training, "evaluate_loss", fake_eval)
    tc = TrainConfig(patience=3, seed=0, max_epochs=5, schedule=Schedule(warmup_steps=10, lr_peak=1e-4))
    result = train(ModelParameters.build(cfg, seed=1), cfg, batches, batches[:1], features, tc)
    assert result.best_val_loss == 1.0


@pytest.mark.filterwarnings("ignore:overflow")
def test_train_divergence_returns_last_good():
    cfg, batches, features = _tiny_setup(dropout=0.0)
    params = ModelParameters.build(cfg, seed=2)
    params["output_projection"].data[:] = 1e308  # overflow in the output projection
    tc = TrainConfig(max_steps=4, seed=0, schedule=Schedule(warmup_steps=10, lr_peak=1e-3))
    result = train(params, cfg, batches, batches[:1], features, tc)
    assert result.diverged
    assert result.steps == 1
    assert result.diverged_reason == "linear: non-finite values in output"


def test_checkpoint_cadence_callback():
    cfg, batches, features = _tiny_setup(dropout=0.0)
    seen = []
    tc = TrainConfig(max_steps=7, seed=0, checkpoint_every=3,
                     schedule=Schedule(warmup_steps=10, lr_peak=1e-3))
    train(ModelParameters.build(cfg, seed=0), cfg, batches, batches[:1], features, tc,
          checkpoint_callback=lambda step, params: seen.append(step))
    assert seen == [3, 6]


def test_unsplit_training_is_the_plain_loop():
    # a batch below 2 * SPLIT_MIN_ROWS rows: one forward, backward and Adam update a step, one Philox stream
    cfg, batches, features = _tiny_setup()
    assert len(batches) == 1 and batches[0].text.size == 8
    tc = TrainConfig(max_steps=3, seed=4, checkpoint_every=3, schedule=Schedule(warmup_steps=10, lr_peak=1e-3))
    live = []
    result = train(ModelParameters.build(cfg, seed=4), cfg, batches, batches, features, tc,
                   checkpoint_callback=lambda step, p: live.extend(t.data.tobytes() for _, t in p.items()))
    params = ModelParameters.build(cfg, seed=4)
    state, rng, text = AdamState(params), np.random.Generator(np.random.Philox(4)), batches[0].text
    for step in range(1, 4):
        with Tape() as tape:
            _, breakdown = forward_full(text, VideoFeatureBatch.stack(batches[0].video_ids, features), params,
                                        cfg, training=True, rng=rng)
            tape.backward(breakdown.loss)
        assert result.metrics[2 * step - 2]["train_loss"] == breakdown.total
        adam_step(params, state, lr_at_step(step, tc.schedule), tc.clip_norm)
    assert live == [t.data.tobytes() for _, t in params.items()]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _counting_forks(monkeypatch):
    """Count the processes forked from now on; returns the list their pids are appended to."""
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _fork_fails():
    raise OSError("fork refused")


@pytest.mark.parametrize("blas", ["1", None], ids=["forked", "inline"])
def test_split_step_equals_the_unsplit_step(monkeypatch, blas):
    _blas_threads(monkeypatch, blas)
    cfg, (batch,), features = _wide_setup()
    text, half = batch.text, batch.text.size // 2
    for part in (text.rows(slice(half)), text.rows(slice(half, None))):
        assert 0 < part.flags.sum() < part.size  # both groups
        assert not part.src_mask.all() and not part.tgt_mask.all()  # padding on both sides
    params = ModelParameters.build(cfg, seed=1)
    rngs = (np.random.Generator(np.random.Philox(0)), np.random.Generator(np.random.Philox(1)))
    whole = training._backward(text, batch.video_ids, features, params, cfg, rngs[0])
    grads = {name: t.grad for name, t in params.items()}
    for _, t in params.items():
        t.grad = None
    with training._second_half_worker([batch], features, params, cfg, rngs[1]) as worker:
        assert (worker is None) == (blas is None)
        start = functools.partial(worker, 0) if worker else None
        total, translation, frame = training._step_backward(batch, features, params, cfg, rngs, start)
    _assert_no_child_left()
    assert total == pytest.approx(whole.total, rel=1e-14)
    assert translation == pytest.approx(whole.translation_loss, rel=1e-14)
    assert frame == pytest.approx(whole.frame_loss, rel=1e-14)
    for name, t in params.items():
        if grads[name] is None:
            assert t.grad is None, name
        else:
            assert np.abs(t.grad - grads[name]).max() <= 1e-12 * np.abs(grads[name]).max(), name


def test_split_training_runs_bit_identical(monkeypatch):
    # the BLAS setting and os.fork only say whether the second half runs in a worker process or after the first
    cfg, batches, features = _wide_setup(rows=2 * SPLIT_MIN_ROWS, dropout=0.1)
    tc = TrainConfig(max_steps=3, seed=2, schedule=Schedule(warmup_steps=10, lr_peak=1e-3))
    forks = _counting_forks(monkeypatch)
    _blas_threads(monkeypatch, "1")
    results = [train(ModelParameters.build(cfg, seed=2), cfg, batches, batches, features, tc)]
    assert len(forks) == 1  # one worker for the whole call, reaped before it returns
    _assert_no_child_left()
    for threads in (None, "2"):  # the halves one after the other in this process
        _blas_threads(monkeypatch, threads)
        results.append(train(ModelParameters.build(cfg, seed=2), cfg, batches, batches, features, tc))
    _blas_threads(monkeypatch, "1")
    # the split did run: unsplit, the second half's dropout masks come from the first stream; no fork then
    with monkeypatch.context() as patch:
        patch.setattr(training, "SPLIT_MIN_ROWS", 2 * SPLIT_MIN_ROWS)
        unsplit = train(ModelParameters.build(cfg, seed=2), cfg, batches, batches, features, tc)
    assert unsplit.metrics[0]["train_loss"] != results[0].metrics[0]["train_loss"]
    assert len(forks) == 1
    monkeypatch.setattr(os, "fork", _fork_fails)
    results.append(train(ModelParameters.build(cfg, seed=2), cfg, batches, batches, features, tc))
    for result in results[1:]:
        for name, t in results[0].params.items():
            assert t.data.tobytes() == result.params[name].data.tobytes(), name
        assert results[0].metrics == result.metrics


@pytest.mark.parametrize("blas", ["1", None], ids=["forked", "inline"])
def test_split_step_failure_names_the_primitive_and_reaps_the_worker(monkeypatch, blas):
    # a warning the worker raised would come back as its error: the repository's test settings make it one
    _blas_threads(monkeypatch, blas)
    forks = _counting_forks(monkeypatch)
    cfg, batches, features = _wide_setup(rows=2 * SPLIT_MIN_ROWS)
    (batch,) = batches
    half = batch.text.size // 2
    second = dict(features)
    for vid in batch.video_ids[half:]:
        second[vid] = np.full((3, 2), 1e308)  # overflows the frame attention's scores
    both = dict(second)
    for vid in batch.video_ids[:half]:
        both[vid] = np.full((3, 2), 1e308)
    both.pop(batch.video_ids[-1])  # the second half now fails with a KeyError instead
    tc = TrainConfig(max_steps=2, seed=0, schedule=Schedule(warmup_steps=10, lr_peak=1e-3))
    for feats in (second, both):
        result = train(ModelParameters.build(cfg, seed=0), cfg, batches, batches, feats, tc)
        assert result.diverged and result.steps == 1
        assert result.diverged_reason == "attention_weights: non-finite values in output"
        _assert_no_child_left()
    first = dict(features)
    first.pop(batch.video_ids[0])
    with pytest.raises(KeyError, match=repr(batch.video_ids[0])):
        train(ModelParameters.build(cfg, seed=0), cfg, batches, batches, first, tc)
    _assert_no_child_left()
    assert len(forks) == (3 if blas else 0)


def test_a_worker_that_ends_without_a_result_is_named_and_reaped(monkeypatch):
    _blas_threads(monkeypatch, "1")
    cfg, batches, features = _wide_setup(rows=2 * SPLIT_MIN_ROWS)
    monkeypatch.setattr(training, "_second_half", lambda *_: os._exit(3))
    tc = TrainConfig(max_steps=2, seed=0, schedule=Schedule(warmup_steps=10, lr_peak=1e-3))
    with pytest.raises(RuntimeError, match=r"without a result \(exit status 3\)"):
        train(ModelParameters.build(cfg, seed=0), cfg, batches, batches, features, tc)
    _assert_no_child_left()


def test_train_requires_validation_batches():
    cfg, batches, features = _tiny_setup()
    with pytest.raises(ValueError, match="validation"):
        train(ModelParameters.build(cfg, seed=0), cfg, batches, [], features, TrainConfig())


# ---------------------------------------------------------------------------
# Synthetic dataset
# ---------------------------------------------------------------------------


def test_synthetic_requires_even_n():
    with pytest.raises(ValueError):
        generate_synthetic_dataset(3, 6, 4)


def test_synthetic_deterministic_and_balanced():
    a = generate_synthetic_dataset(40, 6, 4, seed=5)
    b = generate_synthetic_dataset(40, 6, 4, seed=5)
    assert [r.target_text for r in a[0]] == [r.target_text for r in b[0]]
    for rid in a[1]:
        np.testing.assert_array_equal(a[1][rid], b[1][rid])
    targets = [r.target_text for r in a[0]]
    assert targets.count("class a") == targets.count("class b") == 20
    assert all(a[2][r.id] for r in a[0])


def test_synthetic_sources_identical():
    records, _, _ = generate_synthetic_dataset(10, 6, 4, seed=1)
    assert len({r.source_text for r in records}) == 1


def test_central_indices():
    np.testing.assert_array_equal(central_frame_indices(12), [4, 5, 6, 7])
    np.testing.assert_array_equal(central_frame_indices(6), [2, 3])
    np.testing.assert_array_equal(central_frame_indices(3), [1])


def test_synthetic_class_recoverable_by_linear_probe():
    records, features, _ = generate_synthetic_dataset(400, 12, 8, seed=7)
    central = central_frame_indices(12)
    x = np.stack([features[r.id][central].mean(axis=0) for r in records])
    y = np.array([1.0 if r.target_text == "class b" else -1.0 for r in records])
    # least-squares probe on central-frame means
    design = np.hstack([x, np.ones((len(x), 1))])
    w, *_ = np.linalg.lstsq(design, y, rcond=None)
    acc = ((design @ w > 0) == (y > 0)).mean()
    assert acc > 0.95


def test_synthetic_edge_variant_moves_bump():
    _, central_feats, _ = generate_synthetic_dataset(200, 12, 4, seed=3, bump="central")
    _, edge_feats, _ = generate_synthetic_dataset(200, 12, 4, seed=3, bump="edge")
    central = central_frame_indices(12)
    edge = np.setdiff1d(np.arange(12), central)
    c = np.stack(list(central_feats.values()))
    e = np.stack(list(edge_feats.values()))
    # bump channels carry extra mean where the bump is applied
    assert c[:, central, :2].mean() > c[:, edge, :2].mean() + 0.4
    assert e[:, edge, :2].mean() > e[:, central, :2].mean() + 0.4
