import math

import numpy as np
import pytest
from scipy.stats import norm

from safa import tensor as T
from safa.corpus import CorpusParseError, load_video_features, save_video_features
from safa.model import (
    DecoderCache,
    DegenerateSampleError,
    ModelConfig,
    ModelParameters,
    TextBatch,
    VideoFeatureBatch,
    VocabularyError,
    decode,
    encode_text,
    forward_full,
    frame_attention_loss,
    gated_fusion,
    gaussian_target,
    label_smoothed_loss,
    parameter_shapes,
    project_video,
    selective_attention,
    sinusoidal_positions,
    total_loss,
)
from safa.tensor import Tape, Tensor, check_gradients


def tiny_config(**overrides):
    base = dict(
        src_vocab_size=7,
        tgt_vocab_size=9,
        video_feature_dim=3,
        encoder_layers=1,
        decoder_layers=1,
        d_model=4,
        d_ffn=8,
        heads=2,
        dropout=0.0,
        label_smoothing=0.1,
        frames_per_clip=2,
    )
    base.update(overrides)
    return ModelConfig(**base)


def make_batch(rng, cfg, b=2, s=3, t=4, flags=None):
    src = rng.integers(4, cfg.src_vocab_size, size=(b, s))
    tgt = rng.integers(4, cfg.tgt_vocab_size, size=(b, t))
    tgt[:, 0] = 2  # bos
    tgt[:, -1] = 3  # eos
    if flags is None:
        flags = np.zeros(b, dtype=bool)
    return TextBatch(
        src=src,
        src_mask=np.ones((b, s), dtype=bool),
        tgt=tgt,
        tgt_mask=np.ones((b, t), dtype=bool),
        flags=np.asarray(flags, dtype=bool),
    )


def make_features(rng, cfg, b=2):
    return VideoFeatureBatch(
        rng.normal(size=(b, cfg.frames_per_clip, cfg.video_feature_dim))
    )


# ---------------------------------------------------------------------------
# Config and parameters
# ---------------------------------------------------------------------------


def test_config_defaults_and_validation():
    cfg = ModelConfig(src_vocab_size=10, tgt_vocab_size=10, video_feature_dim=8)
    assert (cfg.encoder_layers, cfg.decoder_layers) == (4, 4)
    assert (cfg.d_model, cfg.d_ffn, cfg.heads) == (128, 256, 4)
    assert (cfg.dropout, cfg.label_smoothing) == (0.3, 0.1)
    assert (cfg.temperature, cfg.frame_loss_weight, cfg.ambiguity_weight) == (1.0, 0.5, 2.0)
    assert (cfg.gaussian_halfwidth, cfg.gaussian_mean, cfg.gaussian_std) == (3.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ModelConfig(src_vocab_size=10, tgt_vocab_size=10, video_feature_dim=8, d_model=10, heads=4)
    with pytest.raises(ValueError):
        ModelConfig(src_vocab_size=10, tgt_vocab_size=10, video_feature_dim=8, temperature=0.0)
    with pytest.raises(ValueError):
        ModelConfig(src_vocab_size=10, tgt_vocab_size=10, video_feature_dim=8, ambiguity_weight=0.5)


def test_config_text_round_trip():
    cfg = tiny_config(temperature=0.25, frame_loss_weight=0.0)
    text = cfg.to_text()
    parsed = ModelConfig.from_text(text)
    assert parsed == cfg
    assert isinstance(parsed.d_model, int) and isinstance(parsed.dropout, float)
    with pytest.raises(ValueError, match="unknown key"):
        ModelConfig.from_text("bogus = 3\n")


def test_parameters_deterministic_and_round_trip(tmp_path):
    cfg = tiny_config()
    a = ModelParameters.build(cfg, seed=11)
    b = ModelParameters.build(cfg, seed=11)
    c = ModelParameters.build(cfg, seed=12)
    for name, t in a.items():
        np.testing.assert_array_equal(t.data, b[name].data)
    assert any(not np.array_equal(t.data, c[name].data) for name, t in a.items())

    path = tmp_path / "m.safa"
    a.save(path)
    loaded = ModelParameters.load(path, cfg)
    for name, t in a.items():
        assert t.data.tobytes() == loaded[name].data.tobytes()


def test_checkpoint_with_parameters_the_config_lacks_is_rejected(tmp_path):
    path = tmp_path / "big.safa"
    ModelParameters.build(tiny_config(encoder_layers=2, decoder_layers=2), seed=0).save(path)
    with pytest.raises(T.CheckpointError, match="'encoder.1.self_attn.wq' is not in the config") as exc:
        ModelParameters.load(path, tiny_config())
    assert str(path) in str(exc.value)


def test_every_truncated_checkpoint_or_feature_file_is_named(tmp_path):
    # a checkpoint cut at an entry boundary parses, then fails the config's shapes
    cfg = tiny_config()
    ckpt = tmp_path / "m.safa"
    ModelParameters.build(cfg, seed=0).save(ckpt)
    clip = tmp_path / "clip.evaf"
    save_video_features(clip, np.ones((cfg.frames_per_clip, cfg.video_feature_dim)))
    cut = tmp_path / "cut.bin"
    for whole, load, error in (
        (ckpt, lambda path: ModelParameters.load(path, cfg), T.CheckpointError),
        (clip, load_video_features, CorpusParseError),
    ):
        data = whole.read_bytes()
        for size in range(len(data)):
            cut.write_bytes(data[:size])
            with pytest.raises(error) as exc:
                load(cut)
            assert str(cut) in str(exc.value), f"{whole.name} cut to {size} bytes: {exc.value}"


def test_parameter_shapes_cover_architecture():
    cfg = tiny_config(encoder_layers=2, decoder_layers=3)
    shapes = parameter_shapes(cfg)
    assert shapes["video_projection"][1] == (cfg.video_feature_dim, cfg.d_model)
    assert shapes["gate_text"][1] == (cfg.d_model, cfg.d_model)
    assert shapes["gate_video"][1] == (cfg.d_model, cfg.d_model)
    assert shapes["output_projection"][1] == (cfg.d_model, cfg.tgt_vocab_size)
    assert "encoder.1.ffn.w1" in shapes and "decoder.2.cross_attn.wo" in shapes


# ---------------------------------------------------------------------------
# Blocks
# ---------------------------------------------------------------------------


def test_encode_shape_and_duplicate_rows():
    cfg = tiny_config()
    p = ModelParameters.build(cfg, seed=0)
    rng = np.random.default_rng(0)
    batch = make_batch(rng, cfg, b=2, s=3)
    batch.src[1] = batch.src[0]
    out = encode_text(batch, p, cfg)
    assert out.data.shape == (2, 3, cfg.d_model)
    np.testing.assert_array_equal(out.data[0], out.data[1])


def test_encode_rejects_out_of_range_ids():
    cfg = tiny_config()
    p = ModelParameters.build(cfg, seed=0)
    batch = make_batch(np.random.default_rng(0), cfg)
    batch.src[0, 0] = cfg.src_vocab_size
    with pytest.raises(VocabularyError, match="source"):
        encode_text(batch, p, cfg)


def test_project_video_identity_zero_and_manual():
    cfg = tiny_config(video_feature_dim=4, d_model=4)
    p = ModelParameters.build(cfg, seed=0)
    p.tensors["video_projection"] = Tensor(np.eye(4), requires_grad=True)
    feats = np.random.default_rng(1).normal(size=(1, 2, 4))
    np.testing.assert_array_equal(project_video(VideoFeatureBatch(feats), p).data, feats)
    np.testing.assert_array_equal(
        project_video(VideoFeatureBatch(np.zeros((1, 2, 4))), p).data, np.zeros((1, 2, 4))
    )

    rng = np.random.default_rng(2)
    w = rng.normal(size=(3, 4))
    x = rng.normal(size=(1, 2, 3))
    cfg3 = tiny_config(video_feature_dim=3, d_model=4)
    p3 = ModelParameters.build(cfg3, seed=0)
    p3.tensors["video_projection"] = Tensor(w, requires_grad=True)
    expected = np.einsum("bmf,fd->bmd", x, w)
    np.testing.assert_allclose(project_video(VideoFeatureBatch(x), p3).data, expected, atol=1e-15)


def test_project_video_dim_mismatch():
    cfg = tiny_config(video_feature_dim=3)
    p = ModelParameters.build(cfg, seed=0)
    with pytest.raises(T.ShapeError, match="dim"):
        project_video(VideoFeatureBatch(np.zeros((1, 2, 5))), p)


def test_selective_attention_single_frame():
    cfg = tiny_config(frames_per_clip=1)
    rng = np.random.default_rng(0)
    h_text = Tensor(rng.normal(size=(2, 3, 4)))
    h_video = Tensor(rng.normal(size=(2, 1, 4)))
    attended, attn = selective_attention(h_text, h_video, cfg)
    np.testing.assert_array_equal(attn.data, np.ones((2, 3, 1)))
    for s in range(3):
        np.testing.assert_array_equal(attended.data[:, s, :], h_video.data[:, 0, :])


def test_selective_attention_identical_frames():
    cfg = tiny_config()
    rng = np.random.default_rng(1)
    h_text = Tensor(rng.normal(size=(1, 3, 4)))
    row = rng.normal(size=(4,))
    h_video = Tensor(np.tile(row, (1, 5, 1)))
    attended, attn = selective_attention(h_text, h_video, cfg)
    np.testing.assert_allclose(attended.data, np.tile(row, (1, 3, 1)), atol=1e-12)
    np.testing.assert_allclose(attn.data.sum(-1), 1.0, atol=1e-9)


def test_selective_attention_hand_computed():
    cfg = tiny_config(d_model=2)
    h_text = Tensor(np.array([[[1.0, 2.0]]]))
    h_video = Tensor(np.array([[[0.5, -1.0], [2.0, 0.25]]]))
    attended, attn = selective_attention(h_text, h_video, cfg)
    scores = np.array([1.0 * 0.5 + 2.0 * -1.0, 1.0 * 2.0 + 2.0 * 0.25]) / math.sqrt(2.0)
    e = np.exp(scores - scores.max())
    w = e / e.sum()
    np.testing.assert_allclose(attn.data[0, 0], w, atol=1e-15)
    np.testing.assert_allclose(
        attended.data[0, 0], w[0] * h_video.data[0, 0] + w[1] * h_video.data[0, 1], atol=1e-15
    )


def test_gated_fusion_zero_weights_and_hand_case():
    cfg = tiny_config(d_model=2)
    p = ModelParameters.build(cfg, seed=0)
    p.tensors["gate_text"] = Tensor(np.zeros((2, 2)), requires_grad=True)
    p.tensors["gate_video"] = Tensor(np.zeros((2, 2)), requires_grad=True)
    rng = np.random.default_rng(3)
    h_text = Tensor(rng.normal(size=(1, 2, 2)))
    h_attn = Tensor(rng.normal(size=(1, 2, 2)))
    fused, gate = gated_fusion(h_text, h_attn, p)
    np.testing.assert_array_equal(gate.data, np.full((1, 2, 2), 0.5))
    np.testing.assert_allclose(fused.data, (h_text.data + h_attn.data) / 2.0, atol=1e-15)

    u = np.array([[0.3, -0.7], [1.1, 0.2]])
    v = np.array([[-0.4, 0.9], [0.6, -1.2]])
    p.tensors["gate_text"] = Tensor(u, requires_grad=True)
    p.tensors["gate_video"] = Tensor(v, requires_grad=True)
    fused, gate = gated_fusion(h_text, h_attn, p)
    pre = h_text.data @ u + h_attn.data @ v
    lam = 1.0 / (1.0 + np.exp(-pre))
    np.testing.assert_allclose(gate.data, lam, atol=1e-15)
    np.testing.assert_allclose(
        fused.data, (1.0 - lam) * h_text.data + lam * h_attn.data, atol=1e-15
    )
    assert (gate.data > 0).all() and (gate.data < 1).all()


def test_gate_forced_to_zero_recovers_text_path():
    rng = np.random.default_rng(4)
    h_text = rng.normal(size=(1, 3, 4))
    h_attn = rng.normal(size=(1, 3, 4))
    lam = np.zeros_like(h_text)
    fused = (1.0 - lam) * h_text + lam * h_attn
    np.testing.assert_array_equal(fused, h_text)


def test_decode_shape_and_causality():
    cfg = tiny_config()
    p = ModelParameters.build(cfg, seed=5)
    rng = np.random.default_rng(5)
    batch = make_batch(rng, cfg, b=1, s=3, t=5)
    h_out = Tensor(rng.normal(size=(1, 3, cfg.d_model)))
    tgt_in = batch.tgt[:, :-1]
    logits = decode(h_out, tgt_in, batch.tgt_mask[:, :-1], batch.src_mask, p, cfg)
    assert logits.data.shape == (1, 4, cfg.tgt_vocab_size)

    changed = tgt_in.copy()
    changed[0, -1] = (changed[0, -1] + 1) % cfg.tgt_vocab_size
    logits2 = decode(h_out, changed, batch.tgt_mask[:, :-1], batch.src_mask, p, cfg)
    np.testing.assert_array_equal(logits.data[:, :-1, :], logits2.data[:, :-1, :])


def test_cached_decode_matches_full_prefix():
    # a greedy rollout over 2 layers and padded sources; after step 2 the rows
    # are kept and permuted as a beam search would, and the full-prefix side
    # follows them
    cfg = tiny_config(decoder_layers=2, d_model=8, d_ffn=16)
    p = ModelParameters.build(cfg, seed=8)
    rng = np.random.default_rng(8)
    h_out = Tensor(rng.normal(size=(3, 4, cfg.d_model)))
    src_mask = np.array([[True] * 4, [True, True, False, False], [True, True, True, False]])
    steps = 6
    cache = DecoderCache(h_out, src_mask, p, cfg, capacity=steps)
    prefix = np.full((3, 1), 2, dtype=np.int64)
    for step in range(steps):
        cached = decode(None, prefix[:, -1:], None, None, p, cfg, cache=cache)
        full = decode(h_out, prefix, np.ones(prefix.shape, dtype=bool), src_mask, p, cfg)
        assert cached.data.shape == (prefix.shape[0], 1, cfg.tgt_vocab_size)
        np.testing.assert_allclose(cached.data[:, 0], full.data[:, -1], rtol=0, atol=1e-10)
        prefix = np.concatenate([prefix, full.data[:, -1:].argmax(axis=-1)], axis=1)
        if step == 2:
            rows = np.array([2, 0, 0, 1])
            cache.reorder(rows)
            h_out, src_mask, prefix = Tensor(h_out.data[rows]), src_mask[rows], prefix[rows]
    with pytest.raises(T.ShapeError, match="full"):
        decode(None, prefix[:, -1:], None, None, p, cfg, cache=cache)
    with pytest.raises(T.ShapeError, match="one new position"):
        decode(None, prefix[:, -2:], None, None, p, cfg, cache=cache)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def test_label_smoothing_zero_is_cross_entropy():
    rng = np.random.default_rng(6)
    logits = Tensor(rng.normal(size=(2, 3, 5)))
    targets = rng.integers(0, 5, size=(2, 3))
    mask = np.ones((2, 3), dtype=bool)
    out = label_smoothed_loss(logits, targets, mask, 0.0)
    logp = logits.data - np.log(np.exp(logits.data).sum(-1, keepdims=True))
    ce = -np.take_along_axis(logp, targets[..., None], -1)[..., 0]
    np.testing.assert_allclose(out.data, ce.mean(axis=1), atol=1e-12)


def test_label_smoothing_uniform_logits():
    logits = Tensor(np.zeros((1, 2, 4)))
    out = label_smoothed_loss(logits, np.zeros((1, 2), dtype=int), np.ones((1, 2), dtype=bool), 0.0)
    np.testing.assert_allclose(out.data, [math.log(4.0)], atol=1e-12)


def test_label_smoothing_hand_computed():
    logits = np.array([[[0.2, -0.5, 1.0], [2.0, 0.0, -1.0]]])
    targets = np.array([[2, 0]])
    mask = np.ones((1, 2), dtype=bool)
    eps = 0.1
    out = label_smoothed_loss(Tensor(logits), targets, mask, eps)
    logp = logits - np.log(np.exp(logits).sum(-1, keepdims=True))
    per_token = []
    for t in range(2):
        nll = -logp[0, t, targets[0, t]]
        smooth = -logp[0, t].mean()
        per_token.append((1 - eps) * nll + eps * smooth)
    np.testing.assert_allclose(out.data, [np.mean(per_token)], atol=1e-12)


def test_label_smoothing_all_masked_sample():
    logits = Tensor(np.zeros((1, 2, 4)))
    with pytest.raises(DegenerateSampleError):
        label_smoothed_loss(logits, np.zeros((1, 2), dtype=int), np.zeros((1, 2), dtype=bool), 0.1)


def test_gaussian_target_single_frame():
    np.testing.assert_array_equal(gaussian_target(1, 3.0, 1.0, 1.0, 1.0), [1.0])


def test_gaussian_target_argmax_at_mean():
    for temperature in (0.5, 1.0, 7.0):
        target = gaussian_target(7, 3.0, 1.0, 1.0, temperature)
        assert target.argmax() == 4  # z = 1 at index 4


def test_gaussian_target_matches_density_softmax_oracle():
    # independent oracle: scipy density values, then tempered softmax
    z = np.linspace(-3.0, 3.0, 7)
    density = norm.pdf(z, loc=1.0, scale=1.0)
    np.testing.assert_allclose(
        density, [0.000134, 0.004432, 0.053991, 0.241971, 0.398942, 0.241971, 0.053991], atol=5e-7
    )
    expected = np.exp(density / 1.0) / np.exp(density / 1.0).sum()
    np.testing.assert_allclose(gaussian_target(7, 3.0, 1.0, 1.0, 1.0), expected, atol=1e-10)


def test_gaussian_target_temperature_limits():
    low = gaussian_target(7, 3.0, 1.0, 1.0, 1e-3)
    one_hot = np.zeros(7)
    one_hot[4] = 1.0
    assert np.abs(low - one_hot).max() < 1e-6
    # uniform convergence is O(range/T): density values span ~0.4, so the
    # max deviation at T=1e3 sits near 0.2567/(7*1000), far above 1e-6
    high = gaussian_target(7, 3.0, 1.0, 1.0, 1e3)
    dev = np.abs(high - np.full(7, 1 / 7)).max()
    assert 2e-5 < dev < 5e-5
    very_high = gaussian_target(7, 3.0, 1.0, 1.0, 1e6)
    assert np.abs(very_high - np.full(7, 1 / 7)).max() < 1e-6


def test_gaussian_target_shift_invariance_of_tempered_softmax():
    z = np.linspace(-3.0, 3.0, 9)
    density = norm.pdf(z, loc=1.0, scale=1.0)
    for temperature in (0.3, 1.0, 4.0):
        scaled = (density + 5.0) / temperature
        e = np.exp(scaled - scaled.max())
        shifted = e / e.sum()
        np.testing.assert_allclose(
            gaussian_target(9, 3.0, 1.0, 1.0, temperature), shifted, atol=1e-12
        )


def test_frame_attention_loss_zero_at_target():
    target = gaussian_target(4, 3.0, 1.0, 1.0, 1.0)
    rows = Tensor(np.tile(target, (2, 3, 1)))
    mask = np.ones((2, 3), dtype=bool)
    assert abs(frame_attention_loss(rows, target, mask).item()) < 1e-14


def test_frame_attention_loss_nonnegative_random():
    rng = np.random.default_rng(8)
    target = gaussian_target(5, 3.0, 1.0, 1.0, 1.0)
    for _ in range(50):
        rows = rng.dirichlet(np.ones(5), size=(2, 3))
        mask = rng.random((2, 3)) > 0.3
        mask[:, 0] = True
        val = frame_attention_loss(Tensor(rows), target, mask).item()
        assert val >= -1e-10


def test_frame_attention_loss_hand_value():
    rows = Tensor(np.array([[[0.5, 0.5]]]))
    target = np.array([0.8, 0.2])
    mask = np.ones((1, 1), dtype=bool)
    expected = 0.5 * math.log(0.5 / 0.8) + 0.5 * math.log(0.5 / 0.2)
    got = frame_attention_loss(rows, target, mask).item()
    np.testing.assert_allclose(got, expected, atol=1e-12)
    np.testing.assert_allclose(got, 0.223144, atol=1e-6)


def test_frame_attention_loss_survives_exact_zero_target():
    rows = Tensor(np.array([[[0.5, 0.5]]]))
    target = np.array([1.0, 0.0])
    val = frame_attention_loss(rows, target, np.ones((1, 1), dtype=bool)).item()
    assert np.isfinite(val)


def test_total_loss_equal_groups():
    cfg = tiny_config(ambiguity_weight=1.0, frame_loss_weight=0.0)
    losses = Tensor(np.array([3.0, 3.0, 3.0, 3.0]))
    flags = np.array([True, True, False, False])
    breakdown = total_loss(losses, flags, Tensor(0.0), cfg)
    np.testing.assert_allclose(breakdown.translation_loss, 6.0, atol=1e-15)


def test_total_loss_reduces_to_plain_mean():
    cfg = tiny_config(frame_loss_weight=0.0, ambiguity_weight=5.0)
    losses = Tensor(np.array([1.0, 2.0, 6.0]))
    flags = np.zeros(3, dtype=bool)
    breakdown = total_loss(losses, flags, Tensor(0.0), cfg)
    np.testing.assert_allclose(breakdown.total, 3.0, atol=1e-15)
    assert (breakdown.ambiguous_count, breakdown.unambiguous_count) == (0, 3)


def test_total_loss_hand_example():
    cfg = tiny_config(ambiguity_weight=2.0, frame_loss_weight=0.5)
    losses = Tensor(np.array([1.0, 3.0]))
    flags = np.array([True, False])
    breakdown = total_loss(losses, flags, Tensor(0.4), cfg)
    np.testing.assert_allclose(breakdown.total, 2.0 * 1.0 + 3.0 + 0.5 * 0.4, atol=1e-12)
    assert breakdown.total == pytest.approx(5.2, abs=1e-12)
    assert (breakdown.ambiguous_count, breakdown.unambiguous_count) == (1, 1)


def test_total_loss_doubling_weight_doubles_flagged_group():
    losses = Tensor(np.array([1.0, 2.0, 4.0]))
    flags = np.array([True, False, True])
    base = tiny_config(ambiguity_weight=1.5, frame_loss_weight=0.0)
    doubled = tiny_config(ambiguity_weight=3.0, frame_loss_weight=0.0)
    lo = total_loss(losses, flags, Tensor(0.0), base).translation_loss
    hi = total_loss(losses, flags, Tensor(0.0), doubled).translation_loss
    unflagged_mean = 2.0
    np.testing.assert_allclose(hi - unflagged_mean, 2.0 * (lo - unflagged_mean), atol=1e-12)


def test_total_loss_empty_group_contributes_zero():
    cfg = tiny_config(ambiguity_weight=9.0, frame_loss_weight=0.0)
    losses = Tensor(np.array([2.0, 4.0]))
    flags = np.array([True, True])
    breakdown = total_loss(losses, flags, Tensor(0.0), cfg)
    np.testing.assert_allclose(breakdown.total, 9.0 * 3.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Full forward
# ---------------------------------------------------------------------------


def test_forward_full_eval_deterministic():
    cfg = tiny_config(dropout=0.3)
    p = ModelParameters.build(cfg, seed=1)
    rng = np.random.default_rng(9)
    batch = make_batch(rng, cfg)
    feats = make_features(rng, cfg)
    out1, b1 = forward_full(batch, feats, p, cfg, training=False)
    out2, b2 = forward_full(batch, feats, p, cfg, training=False)
    np.testing.assert_array_equal(out1.logits.data, out2.logits.data)
    assert b1.total == b2.total


def test_eval_mode_ignores_dropout_rate():
    # same parameters, dropout 0.0 vs 0.3: identical outputs when not training
    rng = np.random.default_rng(21)
    cfg_dry = tiny_config(dropout=0.0)
    cfg_wet = tiny_config(dropout=0.3)
    p = ModelParameters.build(cfg_dry, seed=7)
    batch = make_batch(rng, cfg_dry)
    feats = make_features(rng, cfg_dry)
    out_dry, b_dry = forward_full(batch, feats, p, cfg_dry, training=False)
    out_wet, b_wet = forward_full(batch, feats, p, cfg_wet, training=False)
    np.testing.assert_array_equal(out_dry.logits.data, out_wet.logits.data)
    assert b_dry.total == b_wet.total


def test_forward_full_invariants():
    cfg = tiny_config()
    p = ModelParameters.build(cfg, seed=2)
    rng = np.random.default_rng(10)
    batch = make_batch(rng, cfg, flags=[True, False])
    feats = make_features(rng, cfg)
    out, breakdown = forward_full(batch, feats, p, cfg)
    np.testing.assert_allclose(out.frame_attention.data.sum(-1), 1.0, atol=1e-9)
    assert (out.gate.data > 0).all() and (out.gate.data < 1).all()
    assert breakdown.ambiguous_count + breakdown.unambiguous_count == batch.size
    np.testing.assert_allclose(
        breakdown.total,
        breakdown.translation_loss + cfg.frame_loss_weight * breakdown.frame_loss,
        atol=1e-12,
    )


def test_forward_full_ablation_identities():
    rng = np.random.default_rng(11)
    cfg_plain = tiny_config(frame_loss_weight=0.0, ambiguity_weight=1.0)
    p = ModelParameters.build(cfg_plain, seed=3)
    batch = make_batch(rng, cfg_plain, flags=[False, False])
    feats = make_features(rng, cfg_plain)
    _, plain = forward_full(batch, feats, p, cfg_plain)
    # frame loss weight 0 drops the frame term from the total
    np.testing.assert_allclose(plain.total, plain.translation_loss, atol=1e-12)

    cfg_gamma = tiny_config(frame_loss_weight=0.7, ambiguity_weight=1.0)
    _, with_gamma = forward_full(batch, feats, p, cfg_gamma)
    np.testing.assert_allclose(
        with_gamma.total,
        with_gamma.translation_loss + 0.7 * with_gamma.frame_loss,
        atol=1e-12,
    )
    np.testing.assert_allclose(with_gamma.translation_loss, plain.translation_loss, atol=1e-12)


def test_forward_full_gradients_match_finite_differences():
    cfg = tiny_config()
    p = ModelParameters.build(cfg, seed=4)
    rng = np.random.default_rng(12)
    batch = make_batch(rng, cfg, b=2, s=2, t=3, flags=[True, False])
    feats = make_features(rng, cfg)

    def fn(params):
        _, breakdown = forward_full(batch, feats, ModelParameters(params, cfg), cfg)
        return breakdown.loss

    err = check_gradients(fn, p.tensors, epsilon=1e-4)
    assert err < 1e-3, f"max relative error {err}"


def test_forward_full_train_mode_needs_rng():
    cfg = tiny_config(dropout=0.2)
    p = ModelParameters.build(cfg, seed=4)
    rng = np.random.default_rng(13)
    batch = make_batch(rng, cfg)
    feats = make_features(rng, cfg)
    with pytest.raises(ValueError, match="rng"):
        forward_full(batch, feats, p, cfg, training=True)
    out, _ = forward_full(batch, feats, p, cfg, training=True, rng=np.random.Generator(np.random.Philox(0)))
    assert out.logits.data.shape[0] == 2


# ---------------------------------------------------------------------------
# Straight-line reimplementation oracle (independent of the Tensor engine)
# ---------------------------------------------------------------------------


def _np_softmax(x):
    e = np.exp(x - x.max(-1, keepdims=True))
    return e / e.sum(-1, keepdims=True)


def _np_layer_norm(x, gain, bias, eps=1e-5):
    mean = x.mean(-1, keepdims=True)
    var = ((x - mean) ** 2).mean(-1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps) * gain + bias


def _np_attention(xq, xkv, w, prefix, heads, blocked):
    b, sq, d = xq.shape
    sk = xkv.shape[1]
    dh = d // heads
    q = (xq @ w[f"{prefix}.wq"] + w[f"{prefix}.bq"]).reshape(b, sq, heads, dh).transpose(0, 2, 1, 3)
    k = (xkv @ w[f"{prefix}.wk"] + w[f"{prefix}.bk"]).reshape(b, sk, heads, dh).transpose(0, 2, 1, 3)
    v = (xkv @ w[f"{prefix}.wv"] + w[f"{prefix}.bv"]).reshape(b, sk, heads, dh).transpose(0, 2, 1, 3)
    scores = q @ k.transpose(0, 1, 3, 2) / math.sqrt(dh)
    if blocked is not None:
        scores = np.where(blocked, -1e9, scores)
    mixed = (_np_softmax(scores) @ v).transpose(0, 2, 1, 3).reshape(b, sq, d)
    return mixed @ w[f"{prefix}.wo"] + w[f"{prefix}.bo"]


def _np_ffn(x, w, prefix):
    hidden = np.maximum(x @ w[f"{prefix}.ffn.w1"] + w[f"{prefix}.ffn.b1"], 0.0)
    return hidden @ w[f"{prefix}.ffn.w2"] + w[f"{prefix}.ffn.b2"]


def straight_line_forward(batch, feats, w, cfg):
    """Independent plain-numpy forward of the whole model (eval mode)."""
    d = cfg.d_model
    pe_s = sinusoidal_positions(batch.src.shape[1], d)
    x = w["source_embedding"][batch.src] * math.sqrt(d) + pe_s
    enc_blocked = ~batch.src_mask[:, None, None, :]
    for i in range(cfg.encoder_layers):
        pref = f"encoder.{i}"
        x = _np_layer_norm(
            x + _np_attention(x, x, w, f"{pref}.self_attn", cfg.heads, enc_blocked),
            w[f"{pref}.norm1.gain"], w[f"{pref}.norm1.bias"],
        )
        x = _np_layer_norm(x + _np_ffn(x, w, pref), w[f"{pref}.norm2.gain"], w[f"{pref}.norm2.bias"])
    h_text = x

    h_video = feats.features @ w["video_projection"]
    scores = h_text @ h_video.transpose(0, 2, 1) / math.sqrt(d)
    frame_attention = _np_softmax(scores)
    h_attn = frame_attention @ h_video

    lam = 1.0 / (1.0 + np.exp(-(h_text @ w["gate_text"] + h_attn @ w["gate_video"])))
    fused = (1.0 - lam) * h_text + lam * h_attn

    tgt_in = batch.tgt[:, :-1]
    t = tgt_in.shape[1]
    pe_t = sinusoidal_positions(t, d)
    y = w["target_embedding"][tgt_in] * math.sqrt(d) + pe_t
    causal = np.triu(np.ones((t, t), dtype=bool), k=1)
    self_blocked = causal[None, None, :, :] | ~batch.tgt_mask[:, None, None, :-1]
    cross_blocked = ~batch.src_mask[:, None, None, :]
    for i in range(cfg.decoder_layers):
        pref = f"decoder.{i}"
        y = _np_layer_norm(
            y + _np_attention(y, y, w, f"{pref}.self_attn", cfg.heads, self_blocked),
            w[f"{pref}.norm1.gain"], w[f"{pref}.norm1.bias"],
        )
        y = _np_layer_norm(
            y + _np_attention(y, fused, w, f"{pref}.cross_attn", cfg.heads, cross_blocked),
            w[f"{pref}.norm2.gain"], w[f"{pref}.norm2.bias"],
        )
        y = _np_layer_norm(y + _np_ffn(y, w, pref), w[f"{pref}.norm3.gain"], w[f"{pref}.norm3.bias"])
    logits = y @ w["output_projection"]

    labels = batch.tgt[:, 1:]
    label_mask = batch.tgt_mask[:, 1:]
    logp = logits - np.log(np.exp(logits - logits.max(-1, keepdims=True)).sum(-1, keepdims=True)) - logits.max(-1, keepdims=True)
    nll = -np.take_along_axis(logp, labels[..., None], -1)[..., 0]
    smooth = -logp.mean(-1)
    eps = cfg.label_smoothing
    per_token = (1 - eps) * nll + eps * smooth
    per_sample = (per_token * label_mask).sum(1) / label_mask.sum(1)

    z = np.linspace(-cfg.gaussian_halfwidth, cfg.gaussian_halfwidth, feats.features.shape[1])
    density = np.exp(-((z - cfg.gaussian_mean) ** 2) / 2.0) / math.sqrt(2.0 * math.pi)
    tq = _np_softmax(density / cfg.temperature)
    kl = (frame_attention * (np.log(np.maximum(frame_attention, 1e-12)) - np.log(np.maximum(tq, 1e-12)))).sum(-1)
    frame_loss = ((kl * batch.src_mask).sum(1) / batch.src_mask.sum(1)).mean()

    flags = batch.flags
    terms = 0.0
    if flags.sum():
        terms += cfg.ambiguity_weight * per_sample[flags].mean()
    if (~flags).sum():
        terms += per_sample[~flags].mean()
    total = terms + cfg.frame_loss_weight * frame_loss
    return logits, frame_attention, total


def test_model_matches_straight_line_reimplementation():
    cfg = tiny_config(
        d_model=2, d_ffn=4, heads=1, src_vocab_size=6, tgt_vocab_size=6,
        video_feature_dim=3, frames_per_clip=4,
    )
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        p = ModelParameters.build(cfg, seed=seed)
        batch = make_batch(rng, cfg, b=2, s=3, t=4, flags=rng.random(2) > 0.5)
        feats = make_features(rng, cfg)
        out, breakdown = forward_full(batch, feats, p, cfg)
        w = {name: t.data for name, t in p.items()}
        logits, frame_attention, total = straight_line_forward(batch, feats, w, cfg)
        np.testing.assert_allclose(out.logits.data, logits, atol=1e-10)
        np.testing.assert_allclose(out.frame_attention.data, frame_attention, atol=1e-10)
        np.testing.assert_allclose(breakdown.total, total, atol=1e-10)
