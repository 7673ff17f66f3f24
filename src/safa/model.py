"""Video-guided translation model.

A Transformer encoder-decoder where the decoder cross-attends to a gated
fusion of the text representation and a single-head attention readout over
projected video frames. Three loss pieces: label-smoothed translation loss,
a KL pull of the frame attention toward a tempered Gaussian target, and
group reweighting of possibly-ambiguous samples.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .tensor import Tensor


class VocabularyError(ValueError):
    """Token id outside the configured vocabulary."""


class DegenerateSampleError(ValueError):
    """A sample with no unmasked tokens cannot contribute a mean loss."""


@dataclass
class ModelConfig:
    src_vocab_size: int
    tgt_vocab_size: int
    video_feature_dim: int
    encoder_layers: int = 4
    decoder_layers: int = 4
    d_model: int = 128
    d_ffn: int = 256
    heads: int = 4
    dropout: float = 0.3
    label_smoothing: float = 0.1
    frames_per_clip: int = 12
    gaussian_halfwidth: float = 3.0
    gaussian_mean: float = 1.0
    gaussian_std: float = 1.0
    temperature: float = 1.0
    frame_loss_weight: float = 0.5
    ambiguity_weight: float = 2.0

    def __post_init__(self):
        if self.d_model % self.heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by heads {self.heads}")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.ambiguity_weight < 1:
            raise ValueError("ambiguity_weight must be >= 1")
        if self.frame_loss_weight < 0:
            raise ValueError("frame_loss_weight must be >= 0")
        if self.frames_per_clip < 1:
            raise ValueError("frames_per_clip must be >= 1")
        if not 0 <= self.label_smoothing < 1:
            raise ValueError("label_smoothing must be in [0, 1)")

    def to_text(self):
        return "".join(f"{f.name} = {getattr(self, f.name)}\n" for f in fields(self))

    @classmethod
    def from_text(cls, text):
        types = {f.name: f.type for f in fields(cls)}
        kwargs = {}
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line {lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in types:
                raise ValueError(f"config line {lineno}: unknown key {key!r}")
            wants_int = types[key] is int or types[key] == "int"
            kwargs[key] = int(value) if wants_int else float(value)
        return cls(**kwargs)


@dataclass
class TextBatch:
    """Token-id matrices with padding masks (True marks a real token)."""

    src: np.ndarray          # (B, S) int
    src_mask: np.ndarray     # (B, S) bool
    tgt: np.ndarray          # (B, T) int, bos ... eos then padding
    tgt_mask: np.ndarray     # (B, T) bool
    flags: np.ndarray        # (B,) bool, possibly-ambiguous markers

    def __post_init__(self):
        b = self.src.shape[0]
        if not (self.src_mask.shape == self.src.shape and self.tgt_mask.shape == self.tgt.shape):
            raise ValueError("padding masks must match their id matrices")
        if self.flags.shape != (b,):
            raise ValueError(f"flags must have shape ({b},), got {self.flags.shape}")

    @property
    def size(self):
        return self.src.shape[0]


@dataclass
class VideoFeatureBatch:
    features: np.ndarray     # (B, M, d_v) float

    def __post_init__(self):
        if self.features.ndim != 3:
            raise ValueError(f"features must be (B, M, d_v), got shape {self.features.shape}")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("video features contain non-finite values")

    @classmethod
    def stack(cls, clip_ids, features):
        """Stack ``features[id]`` over ``clip_ids``, naming the first clip whose (frames, dim) differs."""
        clips = [features[clip_id] for clip_id in clip_ids]
        for clip_id, clip in zip(clip_ids, clips):
            if clip.shape != clips[0].shape:
                raise ValueError(
                    f"clip {clip_id!r} has (frames, dim) {clip.shape}, but clip {clip_ids[0]!r} "
                    f"in the same batch has {clips[0].shape}"
                )
        return cls(np.stack(clips))


@dataclass
class ModelOutput:
    logits: Tensor            # (B, T-1, |V_tgt|)
    frame_attention: Tensor   # (B, S, M)
    gate: Tensor              # (B, S, d_model)
    fused: Tensor             # (B, S, d_model)


@dataclass
class BatchLossBreakdown:
    translation_loss: float   # group-weighted translation term
    frame_loss: float         # KL toward the Gaussian frame target, in nats
    total: float
    ambiguous_count: int
    unambiguous_count: int
    loss: Tensor              # differentiable total, for backward


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


def _attention_shapes(prefix, d_model):
    shapes = {}
    for part in ("q", "k", "v", "o"):
        shapes[f"{prefix}.w{part}"] = ("xavier", (d_model, d_model))
        shapes[f"{prefix}.b{part}"] = ("zeros", (d_model,))
    return shapes


def _block_shapes(prefix, cfg, cross):
    shapes = _attention_shapes(f"{prefix}.self_attn", cfg.d_model)
    shapes[f"{prefix}.norm1.gain"] = ("ones", (cfg.d_model,))
    shapes[f"{prefix}.norm1.bias"] = ("zeros", (cfg.d_model,))
    norm = 2
    if cross:
        shapes.update(_attention_shapes(f"{prefix}.cross_attn", cfg.d_model))
        shapes[f"{prefix}.norm2.gain"] = ("ones", (cfg.d_model,))
        shapes[f"{prefix}.norm2.bias"] = ("zeros", (cfg.d_model,))
        norm = 3
    shapes[f"{prefix}.ffn.w1"] = ("xavier", (cfg.d_model, cfg.d_ffn))
    shapes[f"{prefix}.ffn.b1"] = ("zeros", (cfg.d_ffn,))
    shapes[f"{prefix}.ffn.w2"] = ("xavier", (cfg.d_ffn, cfg.d_model))
    shapes[f"{prefix}.ffn.b2"] = ("zeros", (cfg.d_model,))
    shapes[f"{prefix}.norm{norm}.gain"] = ("ones", (cfg.d_model,))
    shapes[f"{prefix}.norm{norm}.bias"] = ("zeros", (cfg.d_model,))
    return shapes


def parameter_shapes(cfg):
    """Ordered name -> (init kind, shape) for every trainable tensor."""
    shapes = {
        "source_embedding": ("xavier", (cfg.src_vocab_size, cfg.d_model)),
        "target_embedding": ("xavier", (cfg.tgt_vocab_size, cfg.d_model)),
    }
    for i in range(cfg.encoder_layers):
        shapes.update(_block_shapes(f"encoder.{i}", cfg, cross=False))
    for i in range(cfg.decoder_layers):
        shapes.update(_block_shapes(f"decoder.{i}", cfg, cross=True))
    shapes["video_projection"] = ("xavier", (cfg.video_feature_dim, cfg.d_model))
    shapes["gate_text"] = ("xavier", (cfg.d_model, cfg.d_model))
    shapes["gate_video"] = ("xavier", (cfg.d_model, cfg.d_model))
    shapes["output_projection"] = ("xavier", (cfg.d_model, cfg.tgt_vocab_size))
    return shapes


class ModelParameters:
    """Named trainable tensors; creation is fully determined by (config, seed)."""

    def __init__(self, tensors, config):
        self.tensors = tensors
        self.config = config

    @classmethod
    def build(cls, config, seed=0):
        rng = np.random.Generator(np.random.Philox(seed))
        tensors = {}
        for name, (kind, shape) in parameter_shapes(config).items():
            if kind == "xavier":
                bound = math.sqrt(6.0 / (shape[0] + shape[1]))
                data = rng.uniform(-bound, bound, size=shape)
            elif kind == "ones":
                data = np.ones(shape)
            else:
                data = np.zeros(shape)
            tensors[name] = Tensor(data, requires_grad=True)
        return cls(tensors, config)

    def __getitem__(self, name):
        return self.tensors[name]

    def items(self):
        return self.tensors.items()

    def zero_grad(self):
        for t in self.tensors.values():
            t.zero_grad()

    def copy(self):
        clone = {
            name: Tensor(t.data.copy(), requires_grad=True) for name, t in self.tensors.items()
        }
        return ModelParameters(clone, self.config)

    def save(self, path):
        T.save_checkpoint(path, self.tensors)

    @classmethod
    def load(cls, path, config):
        arrays = T.load_checkpoint(path)
        expected = parameter_shapes(config)
        for name in arrays:
            if name not in expected:
                raise T.CheckpointError(f"{path}: checkpoint parameter {name!r} is not in the config")
        tensors = {}
        for name, (_, shape) in expected.items():
            if name not in arrays:
                raise T.CheckpointError(f"{path}: checkpoint missing parameter {name!r}")
            if arrays[name].shape != shape:
                raise T.CheckpointError(
                    f"{path}: checkpoint parameter {name!r} has shape {arrays[name].shape}, expected {shape}"
                )
            tensors[name] = Tensor(arrays[name], requires_grad=True)
        return cls(tensors, config)


def sinusoidal_positions(length, d_model):
    """Fixed sin/cos position table, shape (length, d_model)."""
    position = np.arange(length, dtype=np.float64)[:, None]
    div = np.exp(np.arange(0, d_model, 2, dtype=np.float64) * (-math.log(10000.0) / d_model))
    table = np.zeros((length, d_model))
    table[:, 0::2] = np.sin(position * div)
    table[:, 1::2] = np.cos(position * div)
    return table


# ---------------------------------------------------------------------------
# Architecture blocks
# ---------------------------------------------------------------------------


def _maybe_dropout(x, rate, training, rng):
    if not training or rate == 0.0:
        return x
    mask = rng.random(x.data.shape) >= rate
    return T.dropout(x, rate, mask)


def _layer_norm(x, p, prefix):
    return T.layer_norm(x, p[f"{prefix}.gain"], p[f"{prefix}.bias"])


def _project_kv(x_kv, p, prefix):
    """Keys and values of one attention sublayer, each (B, S, d_model)."""
    k = T.linear(x_kv, p[f"{prefix}.wk"], p[f"{prefix}.bk"])
    v = T.linear(x_kv, p[f"{prefix}.wv"], p[f"{prefix}.bv"])
    return k, v


def _attention_block(x_q, x_kv, p, prefix, heads, blocked=None, kv=None):
    """Multi-head attention sublayer body. ``blocked`` is True where a
    query may not look at a key. Keys and values are projected from
    ``x_kv`` unless ``kv`` already holds them."""
    q = T.linear(x_q, p[f"{prefix}.wq"], p[f"{prefix}.bq"])
    k, v = kv if kv is not None else _project_kv(x_kv, p, prefix)
    return T.linear(T.attention(q, k, v, heads, blocked), p[f"{prefix}.wo"], p[f"{prefix}.bo"])


def _embed(table, ids, d_model, limit, side, offset=0):
    """Scaled embeddings plus the position table; column j sits at position offset + j."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= limit):
        raise VocabularyError(f"{side} token id out of range [0, {limit})")
    scaled = T.scale(T.embedding(table, ids), math.sqrt(d_model))
    return T.add(scaled, Tensor(sinusoidal_positions(offset + ids.shape[1], d_model)[offset:]))


def encode_text(batch, p, cfg, training=False, rng=None):
    """Transformer encoder over source ids -> (B, S, d_model)."""
    x = _embed(p["source_embedding"], batch.src, cfg.d_model, cfg.src_vocab_size, "source")
    x = _maybe_dropout(x, cfg.dropout, training, rng)
    key_blocked = ~batch.src_mask[:, None, :]  # (B, 1, S)
    for i in range(cfg.encoder_layers):
        prefix = f"encoder.{i}"
        attn = _attention_block(x, x, p, f"{prefix}.self_attn", cfg.heads, key_blocked)
        x = _layer_norm(T.add(x, _maybe_dropout(attn, cfg.dropout, training, rng)), p, f"{prefix}.norm1")
        ffn = _ffn_block(x, p, prefix, cfg, training, rng)
        x = _layer_norm(T.add(x, ffn), p, f"{prefix}.norm2")
    return x


def project_video(features, p):
    """Per-frame linear map of raw features into the model width."""
    if features.features.shape[-1] != p["video_projection"].data.shape[0]:
        raise T.ShapeError(
            f"video features have dim {features.features.shape[-1]}, "
            f"projection expects {p['video_projection'].data.shape[0]}"
        )
    return T.matmul(Tensor(features.features), p["video_projection"])


def selective_attention(h_text, h_video, cfg):
    """Single-head attention from token queries to frame keys/values.

    No learned projections inside the block; the scaling factor is d_model.
    Returns (attended video per token, frame attention rows).
    """
    scores = T.scale(T.matmul(h_text, T.transpose(h_video)), 1.0 / math.sqrt(cfg.d_model))
    frame_attention = T.softmax(scores)
    return T.matmul(frame_attention, h_video), frame_attention


def gated_fusion(h_text, h_attn, p):
    """Elementwise sigmoid gate mixing text and attended-video representations."""
    gate = T.sigmoid(T.add(T.matmul(h_text, p["gate_text"]), T.matmul(h_attn, p["gate_video"])))
    fused = T.add(h_text, T.mul(gate, T.sub(h_attn, h_text)))
    return fused, gate


class DecoderCache:
    """Keys and values for incremental decoding, one row per hypothesis.

    ``cross`` holds each decoder layer's cross-attention keys and values,
    projected once from the encoder output, one row per source; ``source``
    maps each hypothesis row to its source row. ``keys`` and ``values``
    hold each layer's self-attention keys and values, (rows, capacity,
    d_model), of which the first ``length`` positions are decoded.
    ``reorder`` keeps and permutes hypothesis rows, so a beam search can
    follow each kept hypothesis to its parent.
    """

    def __init__(self, h_out, src_mask, p, cfg, capacity):
        self.cross = [
            tuple(t.data for t in _project_kv(h_out, p, f"decoder.{i}.cross_attn"))
            for i in range(cfg.decoder_layers)
        ]
        self.src_mask = src_mask
        self.source = np.arange(src_mask.shape[0])
        shape = (src_mask.shape[0], capacity, cfg.d_model)
        self.keys = [np.empty(shape) for _ in range(cfg.decoder_layers)]
        self.values = [np.empty(shape) for _ in range(cfg.decoder_layers)]
        self.length = 0

    def extend(self, layer, kv):
        """Store one layer's keys and values of the new position; return all so far."""
        t = self.length
        if t == self.keys[layer].shape[1]:
            raise T.ShapeError(f"decoder cache is full at {t} positions")
        for past, new in zip((self.keys, self.values), kv):
            past[layer][:, t:t + 1] = new.data
        return Tensor(self.keys[layer][:, : t + 1]), Tensor(self.values[layer][:, : t + 1])

    def cross_kv(self, layer):
        k, v = self.cross[layer]
        return Tensor(k[self.source]), Tensor(v[self.source])

    def reorder(self, rows):
        """Row r becomes old row rows[r]. One array at a time, so the
        gather's transient copy is one layer's keys or values."""
        self.source = self.source[rows]
        for past in (self.keys, self.values):
            for i in range(len(past)):
                past[i] = past[i][rows]


def decode(h_out, tgt_input, tgt_input_mask, src_mask, p, cfg, training=False, rng=None,
           cache=None):
    """Transformer decoder; cross-attention keys/values are the fused output.

    With a ``DecoderCache``, ``tgt_input`` is (rows, 1): each row's newest
    token, at position ``cache.length``. Self-attention reads the earlier
    positions from the cache and adds this one to it; cross-attention reads
    the cache's projected encoder output, so ``h_out``, ``tgt_input_mask``
    and ``src_mask`` are not used. The logits cover the new position only.
    """
    offset = 0 if cache is None else cache.length
    x = _embed(p["target_embedding"], tgt_input, cfg.d_model, cfg.tgt_vocab_size, "target", offset)
    x = _maybe_dropout(x, cfg.dropout, training, rng)
    if cache is None:
        t = tgt_input.shape[1]
        causal = np.triu(np.ones((t, t), dtype=bool), k=1)
        self_blocked = causal[None, :, :] | ~tgt_input_mask[:, None, :]
        cross_blocked = ~src_mask[:, None, :]
    elif tgt_input.shape[1] != 1:
        raise T.ShapeError(f"cached decoding takes one new position per row, got {tgt_input.shape}")
    else:
        self_blocked, cross_blocked = None, ~cache.src_mask[cache.source][:, None, :]
    for i in range(cfg.decoder_layers):
        prefix = f"decoder.{i}"
        kv = None if cache is None else cache.extend(i, _project_kv(x, p, f"{prefix}.self_attn"))
        attn = _attention_block(x, x, p, f"{prefix}.self_attn", cfg.heads, self_blocked, kv)
        x = _layer_norm(T.add(x, _maybe_dropout(attn, cfg.dropout, training, rng)), p, f"{prefix}.norm1")
        kv = None if cache is None else cache.cross_kv(i)
        cross = _attention_block(x, h_out, p, f"{prefix}.cross_attn", cfg.heads, cross_blocked, kv)
        x = _layer_norm(T.add(x, _maybe_dropout(cross, cfg.dropout, training, rng)), p, f"{prefix}.norm2")
        ffn = _ffn_block(x, p, prefix, cfg, training, rng)
        x = _layer_norm(T.add(x, ffn), p, f"{prefix}.norm3")
    if cache is not None:
        cache.length += 1
    return T.matmul(x, p["output_projection"])


def _ffn_block(x, p, prefix, cfg, training, rng):
    hidden = T.relu(T.linear(x, p[f"{prefix}.ffn.w1"], p[f"{prefix}.ffn.b1"]))
    out = T.linear(hidden, p[f"{prefix}.ffn.w2"], p[f"{prefix}.ffn.b2"])
    return _maybe_dropout(out, cfg.dropout, training, rng)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

_PROB_FLOOR = 1e-12


def label_smoothed_loss(logits, targets, mask, smoothing):
    """Per-sample translation losses, shape (B,).

    Per token: (1 - eps) * NLL(target) + eps * mean over the vocabulary of
    per-class NLL; then the mean over unmasked tokens of each sample.
    """
    counts = mask.sum(axis=1)
    if (counts == 0).any():
        raise DegenerateSampleError("sample with all target positions masked")
    logp = T.log_softmax(logits)
    nll = T.scale(T.take_index(logp, targets), -1.0)
    smooth = T.scale(T.reduce_mean(logp, axis=-1), -1.0)
    per_token = T.add(T.scale(nll, 1.0 - smoothing), T.scale(smooth, smoothing))
    masked = T.mul(per_token, Tensor(mask.astype(np.float64)))
    return T.mul(T.reduce_sum(masked, axis=-1), Tensor(1.0 / counts))


def gaussian_target(frames, halfwidth, mean, std, temperature):
    """Tempered softmax of Gaussian density values at evenly spaced points.

    The points run from -halfwidth to halfwidth (a single frame sits at 0);
    density values are divided by the temperature before exponentiation.
    """
    if frames < 1:
        raise ValueError("frames must be >= 1")
    if std <= 0 or temperature <= 0:
        raise ValueError("std and temperature must be positive")
    z = np.linspace(-halfwidth, halfwidth, frames) if frames > 1 else np.zeros(1)
    density = np.exp(-((z - mean) ** 2) / (2.0 * std * std)) / (std * math.sqrt(2.0 * math.pi))
    scaled = density / temperature
    e = np.exp(scaled - scaled.max())
    return e / e.sum()


def frame_attention_loss(frame_attention, target, mask):
    """Mean KL(attention row || target) in nats over unmasked tokens, then batch.

    Probabilities are floored at 1e-12 inside the logs so an exact zero on
    either side never produces an infinity.
    """
    counts = mask.sum(axis=1)
    if (counts == 0).any():
        raise DegenerateSampleError("sample with all source positions masked")
    log_q = Tensor(np.log(np.maximum(np.asarray(target, dtype=np.float64), _PROB_FLOOR)))
    log_p = T.log(frame_attention, floor=_PROB_FLOOR)
    kl_tok = T.reduce_sum(T.mul(frame_attention, T.sub(log_p, log_q)), axis=-1)
    masked = T.mul(kl_tok, Tensor(mask.astype(np.float64)))
    per_sample = T.mul(T.reduce_sum(masked, axis=-1), Tensor(1.0 / counts))
    return T.reduce_mean(per_sample)


def total_loss(per_sample_losses, flags, frame_loss, cfg):
    """Combine group-weighted translation losses with the frame-attention term.

    The possibly-ambiguous group's mean is multiplied by ambiguity_weight;
    an empty group contributes zero. With no flagged samples the translation
    term reduces to the plain batch mean.
    """
    flags = np.asarray(flags, dtype=bool)
    if flags.shape != per_sample_losses.data.shape:
        raise T.ShapeError(
            f"flags shape {flags.shape} != per-sample losses shape {per_sample_losses.data.shape}"
        )
    ambiguous = int(flags.sum())
    unambiguous = int(flags.size - ambiguous)
    translation = None
    if ambiguous:
        group = T.reduce_sum(T.mul(per_sample_losses, Tensor(flags.astype(np.float64))))
        translation = T.scale(group, cfg.ambiguity_weight / ambiguous)
    if unambiguous:
        group = T.reduce_sum(T.mul(per_sample_losses, Tensor((~flags).astype(np.float64))))
        group = T.scale(group, 1.0 / unambiguous)
        translation = group if translation is None else T.add(translation, group)
    total = T.add(translation, T.scale(frame_loss, cfg.frame_loss_weight))
    return BatchLossBreakdown(
        translation_loss=translation.item(),
        frame_loss=frame_loss.item(),
        total=total.item(),
        ambiguous_count=ambiguous,
        unambiguous_count=unambiguous,
        loss=total,
    )


def forward_full(batch, features, p, cfg, training=False, rng=None):
    """Full forward pass: encode, attend over frames, fuse, decode, losses."""
    if training and cfg.dropout > 0 and rng is None:
        raise ValueError("training mode with dropout needs an rng")
    h_text = encode_text(batch, p, cfg, training, rng)
    h_video = project_video(features, p)
    h_attn, frame_attention = selective_attention(h_text, h_video, cfg)
    fused, gate = gated_fusion(h_text, h_attn, p)
    logits = decode(
        fused, batch.tgt[:, :-1], batch.tgt_mask[:, :-1], batch.src_mask, p, cfg, training, rng
    )
    per_sample = label_smoothed_loss(
        logits, batch.tgt[:, 1:], batch.tgt_mask[:, 1:], cfg.label_smoothing
    )
    target = gaussian_target(
        features.features.shape[1],
        cfg.gaussian_halfwidth,
        cfg.gaussian_mean,
        cfg.gaussian_std,
        cfg.temperature,
    )
    frame_loss = frame_attention_loss(frame_attention, target, batch.src_mask)
    breakdown = total_loss(per_sample, batch.flags, frame_loss, cfg)
    output = ModelOutput(
        logits=logits, frame_attention=frame_attention, gate=gate, fused=fused
    )
    return output, breakdown
