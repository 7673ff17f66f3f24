"""Video-guided translation model.

A Transformer encoder-decoder where the decoder cross-attends to a gated
fusion of the text representation and a single-head attention readout over
projected video frames. Three loss pieces: label-smoothed translation loss,
a KL pull of the frame attention toward a tempered Gaussian target, and
group reweighting of possibly-ambiguous samples.
"""

import functools
import math
from dataclasses import MISSING, dataclass, fields
from typing import NamedTuple

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
        for f in fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for name in ("src_vocab_size", "tgt_vocab_size", "video_feature_dim", "d_model", "d_ffn", "heads",
                     "gaussian_std", "temperature"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0 <= self.dropout < 1:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.d_model % self.heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by heads {self.heads}")
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
    def parse_text(cls, text):
        """The typed values of the ``key = value`` lines of ``text``, any subset of the fields."""
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
            wants_int = types[key] is int
            try:
                kwargs[key] = int(value) if wants_int else float(value)
            except ValueError:
                kind = "an integer" if wants_int else "a number"
                raise ValueError(f"config line {lineno}: {key} must be {kind}, got {value!r}") from None
        return kwargs

    @classmethod
    def from_text(cls, text):
        """The config ``text`` sets in full: it must give every field that has no default."""
        kwargs = cls.parse_text(text)
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in kwargs]
        if missing:
            raise ValueError(f"config lacks {', '.join(missing)}")
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

    def rows(self, index):
        """The batch of the rows the slice ``index`` selects."""
        return TextBatch(self.src[index], self.src_mask[index], self.tgt[index], self.tgt_mask[index],
                         self.flags[index])


@dataclass
class VideoFeatureBatch:
    features: np.ndarray     # (B, M, d_v) float

    def __post_init__(self):
        if self.features.ndim != 3:
            raise ValueError(f"features must be (B, M, d_v), got shape {self.features.shape}")
        if not T.all_finite(self.features):
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


class LossNormalizers(NamedTuple):
    """The whole batch's counts that divide each sample's share of the loss.

    A step that runs a batch's rows in parts hands every part the whole
    batch's counts, so that the parts' losses and gradients sum to the batch's.
    """

    rows: int
    ambiguous: int
    unambiguous: int

    @classmethod
    def of(cls, flags):
        flags = np.asarray(flags, dtype=bool)
        ambiguous = int(flags.sum())
        return cls(flags.size, ambiguous, int(flags.size - ambiguous))


@dataclass
class BatchLossBreakdown:
    translation_loss: float   # group-weighted translation term
    frame_loss: float         # KL toward the Gaussian frame target, in nats
    total: float
    ambiguous_count: int      # the normalizers' counts: the whole batch's
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

    def __init__(self, tensors):
        self.tensors = tensors

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
        return cls(tensors)

    def __getitem__(self, name):
        return self.tensors[name]

    def items(self):
        return self.tensors.items()

    def copy(self):
        clone = {
            name: Tensor(t.data.copy(), requires_grad=True) for name, t in self.tensors.items()
        }
        return ModelParameters(clone)

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
            if not T.all_finite(arrays[name]):
                raise T.CheckpointError(f"{path}: checkpoint parameter {name!r} has non-finite values")
            tensors[name] = Tensor(arrays[name], requires_grad=True)
        return cls(tensors)


# Each table is stored complete and never written again, so a caller may
# keep the view it returned while a longer table replaces it.
_POSITION_TABLES = {}  # d_model -> read-only table, grown to the longest length asked for


def sinusoidal_positions(length, d_model):
    """Fixed sin/cos position table, shape (length, d_model), as a read-only view.

    Row p depends only on p, so one table per d_model, grown on demand,
    serves every length: a forward no longer recomputes it.
    """
    table = _POSITION_TABLES.get(d_model)
    if table is None or table.shape[0] < length:
        size = max(length, 0 if table is None else 2 * table.shape[0])
        position = np.arange(size, dtype=np.float64)[:, None]
        div = np.exp(np.arange(0, d_model, 2, dtype=np.float64) * (-math.log(10000.0) / d_model))
        table = np.zeros((size, d_model))
        table[:, 0::2] = np.sin(position * div)
        table[:, 1::2] = np.cos(position * div)
        table.flags.writeable = False
        _POSITION_TABLES[d_model] = table
    return table[:length]


@functools.cache
def _causal_mask(length):
    """(length, length) read-only bool, True above the diagonal: where a position may not look at a later one."""
    mask = np.triu(np.ones((length, length), dtype=bool), k=1)
    mask.flags.writeable = False
    return mask


# ---------------------------------------------------------------------------
# Architecture blocks
# ---------------------------------------------------------------------------


def _maybe_dropout(x, rate, training, rng):
    if not training or rate == 0.0:
        return x
    mask = rng.random(x.data.shape) >= rate
    return T.dropout(x, rate, mask)


def _residual(x, sublayer, p, norm, cfg, training, rng):
    """Post-norm residual: ``x + dropout(sublayer)``, layer-normalized with the ``norm`` gain and bias."""
    sublayer = _maybe_dropout(sublayer, cfg.dropout, training, rng)
    return T.residual_norm(x, sublayer, p[f"{norm}.gain"], p[f"{norm}.bias"])


def _project_kv(x_kv, p, prefix):
    """Keys and values of one attention sublayer, each (B, S, d_model).

    The key bias ``bk`` is not read: the softmax cancels the q·bk it adds to a query's scores.
    """
    k = T.linear(x_kv, p[f"{prefix}.wk"])
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
    positions = sinusoidal_positions(offset + ids.shape[1], d_model)[offset:]
    try:
        return T.embedding(table, ids, math.sqrt(d_model), positions)
    except T.ShapeError:
        # the lookup checked the ids once; only a failure is traced to them
        if ids.size and (ids.min() < 0 or ids.max() >= limit):
            raise VocabularyError(f"{side} token id out of range [0, {limit})") from None
        raise


def encode_text(batch, p, cfg, training=False, rng=None):
    """Transformer encoder over source ids -> (B, S, d_model)."""
    x = _embed(p["source_embedding"], batch.src, cfg.d_model, cfg.src_vocab_size, "source")
    x = _maybe_dropout(x, cfg.dropout, training, rng)
    key_blocked = ~batch.src_mask[:, None, :]  # (B, 1, S)
    for i in range(cfg.encoder_layers):
        prefix = f"encoder.{i}"
        attn = _attention_block(x, x, p, f"{prefix}.self_attn", cfg.heads, key_blocked)
        x = _residual(x, attn, p, f"{prefix}.norm1", cfg, training, rng)
        x = _residual(x, _ffn_block(x, p, prefix), p, f"{prefix}.norm2", cfg, training, rng)
    return x


def project_video(features, p):
    """Per-frame linear map of raw features into the model width."""
    if features.features.shape[-1] != p["video_projection"].data.shape[0]:
        raise T.ShapeError(
            f"video features have dim {features.features.shape[-1]}, "
            f"projection expects {p['video_projection'].data.shape[0]}"
        )
    return T.linear(Tensor(features.features), p["video_projection"])


def selective_attention(h_text, h_video, cfg):
    """Single-head attention from token queries to frame keys/values.

    No learned projections inside the block; the scores are scaled by 1/sqrt(d),
    d the queries' width. Returns (attended video per token, frame attention rows).
    """
    frame_attention = T.attention_weights(h_text, h_video)
    return T.matmul(frame_attention, h_video), frame_attention


def gated_fusion(h_text, h_attn, p):
    """Elementwise sigmoid gate mixing text and attended-video representations."""
    gate = T.sigmoid(T.add(T.linear(h_text, p["gate_text"]), T.linear(h_attn, p["gate_video"])))
    return T.lerp(h_text, h_attn, gate), gate


def fuse_sources(batch, features, p, cfg, training=False, rng=None):
    """Encode the sources, attend over their clips' frames and gate the two together.

    Returns (fused (B, S, d_model), frame attention (B, S, M), gate (B, S, d_model)).
    """
    h_text = encode_text(batch, p, cfg, training, rng)
    h_attn, frame_attention = selective_attention(h_text, project_video(features, p), cfg)
    fused, gate = gated_fusion(h_text, h_attn, p)
    return fused, frame_attention, gate


class DecoderCache:
    """Keys and values for incremental decoding, one row per hypothesis.

    ``cross`` holds each decoder layer's cross-attention keys and values,
    projected once from the encoder output, one row per source; ``source``
    maps each hypothesis row to its source row. ``keys`` and ``values``
    hold each layer's self-attention keys and values of the ``length``
    positions decoded so far, (rows, length, d_model), and grow by one
    position a step. ``reorder`` keeps and permutes hypothesis rows, so a
    beam search can follow each kept hypothesis to its parent.
    """

    def __init__(self, h_out, src_mask, p, cfg):
        self.cross = [
            tuple(t.data for t in _project_kv(h_out, p, f"decoder.{i}.cross_attn"))
            for i in range(cfg.decoder_layers)
        ]
        self.src_mask = src_mask
        self.source = np.arange(src_mask.shape[0])
        empty = np.empty((src_mask.shape[0], 0, cfg.d_model))
        self.keys = [empty] * cfg.decoder_layers
        self.values = [empty] * cfg.decoder_layers
        self.length = 0

    def extend(self, layer, kv):
        """Append one layer's keys and values of the new position; return all so far."""
        for past, new in zip((self.keys, self.values), kv):
            past[layer] = np.concatenate((past[layer], new.data), axis=1)
        return Tensor(self.keys[layer]), Tensor(self.values[layer])

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
        self_blocked = _causal_mask(tgt_input.shape[1])[None, :, :] | ~tgt_input_mask[:, None, :]
        cross_blocked = ~src_mask[:, None, :]
    elif tgt_input.shape[1] != 1:
        raise T.ShapeError(f"cached decoding takes one new position per row, got {tgt_input.shape}")
    else:
        self_blocked, cross_blocked = None, ~cache.src_mask[cache.source][:, None, :]
    for i in range(cfg.decoder_layers):
        prefix = f"decoder.{i}"
        kv = None if cache is None else cache.extend(i, _project_kv(x, p, f"{prefix}.self_attn"))
        attn = _attention_block(x, x, p, f"{prefix}.self_attn", cfg.heads, self_blocked, kv)
        x = _residual(x, attn, p, f"{prefix}.norm1", cfg, training, rng)
        kv = None if cache is None else cache.cross_kv(i)
        cross = _attention_block(x, h_out, p, f"{prefix}.cross_attn", cfg.heads, cross_blocked, kv)
        x = _residual(x, cross, p, f"{prefix}.norm2", cfg, training, rng)
        x = _residual(x, _ffn_block(x, p, prefix), p, f"{prefix}.norm3", cfg, training, rng)
    if cache is not None:
        cache.length += 1
    return T.linear(x, p["output_projection"])


def _ffn_block(x, p, prefix):
    hidden = T.relu(T.linear(x, p[f"{prefix}.ffn.w1"], p[f"{prefix}.ffn.b1"]))
    return T.linear(hidden, p[f"{prefix}.ffn.w2"], p[f"{prefix}.ffn.b2"])


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def _mean_weights(mask, side):
    """(B, S) weights: summed against (B, S) values, each sample's mean over the kept positions."""
    counts = mask.sum(axis=1, keepdims=True)
    if not counts.all():
        raise DegenerateSampleError(f"sample with all {side} positions masked")
    return mask / counts


def label_smoothed_loss(logits, targets, mask, smoothing):
    """Per-sample translation losses, shape (B,).

    Per token: (1 - eps) * NLL(target) + eps * mean over the vocabulary of
    per-class NLL; then the mean over unmasked tokens of each sample.
    """
    per_token = T.smoothed_cross_entropy(logits, targets, smoothing)
    return T.weighted_sum(per_token, _mean_weights(mask, "target"), axis=-1)


@functools.cache
def gaussian_target(frames, halfwidth, mean, std, temperature):
    """Tempered softmax of Gaussian density values at evenly spaced points, as a read-only array.

    The points run from -halfwidth to halfwidth (a single frame sits at 0);
    density values are divided by the temperature before exponentiation.
    Every forward asks for the same target, so it is computed once per
    argument tuple and shared.
    """
    if frames < 1:
        raise ValueError("frames must be >= 1")
    if std <= 0 or temperature <= 0:
        raise ValueError("std and temperature must be positive")
    z = np.linspace(-halfwidth, halfwidth, frames) if frames > 1 else np.zeros(1)
    density = np.exp(-((z - mean) ** 2) / (2.0 * std * std)) / (std * math.sqrt(2.0 * math.pi))
    scaled = density / temperature
    e = np.exp(scaled - scaled.max())
    target = e / e.sum()
    target.flags.writeable = False
    return target


def frame_attention_loss(frame_attention, target, mask, norms=None):
    """Mean KL(attention row || target) in nats over unmasked tokens, then over the batch's rows.

    The rows counted are ``norms.rows`` when ``norms`` is given, else the B of ``mask``.
    """
    kl = T.kl_divergence(frame_attention, target)  # (B, S)
    return T.weighted_sum(kl, _mean_weights(mask, "source") / (mask.shape[0] if norms is None else norms.rows))


def total_loss(per_sample_losses, flags, frame_loss, cfg, norms=None):
    """Combine group-weighted translation losses with the frame-attention term.

    The possibly-ambiguous group's mean is multiplied by ambiguity_weight: a
    sample weighs ambiguity_weight / n_ambiguous if flagged, 1 / n_unambiguous
    if not. With no flagged samples the translation term is the batch mean.
    The group sizes are ``norms``' counts, by default those of ``flags``.
    """
    flags = np.asarray(flags, dtype=bool)
    if flags.shape != per_sample_losses.data.shape:
        raise T.ShapeError(
            f"flags shape {flags.shape} != per-sample losses shape {per_sample_losses.data.shape}"
        )
    norms = norms or LossNormalizers.of(flags)
    weights = np.where(flags, cfg.ambiguity_weight, 1.0) / np.where(flags, norms.ambiguous, norms.unambiguous)
    translation = T.weighted_sum(per_sample_losses, weights)
    total = T.add(translation, T.scale(frame_loss, cfg.frame_loss_weight))
    return BatchLossBreakdown(
        translation_loss=translation.item(),
        frame_loss=frame_loss.item(),
        total=total.item(),
        ambiguous_count=norms.ambiguous,
        unambiguous_count=norms.unambiguous,
        loss=total,
    )


def decode_losses(fused, frame_attention, batch, features, p, cfg, training=False, rng=None, norms=None):
    """The forward after fusion: decode the fused sources and score both losses.

    ``norms`` are the counts that divide the losses (``LossNormalizers``),
    by default the batch's own. Returns (logits, breakdown).
    """
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
    frame_loss = frame_attention_loss(frame_attention, target, batch.src_mask, norms)
    return logits, total_loss(per_sample, batch.flags, frame_loss, cfg, norms)


def forward_full(batch, features, p, cfg, training=False, rng=None, norms=None):
    """Full forward pass: ``fuse_sources``, then ``decode_losses``."""
    if training and cfg.dropout > 0 and rng is None:
        raise ValueError("training mode with dropout needs an rng")
    fused, frame_attention, gate = fuse_sources(batch, features, p, cfg, training, rng)
    logits, breakdown = decode_losses(fused, frame_attention, batch, features, p, cfg, training, rng, norms)
    return ModelOutput(logits=logits, frame_attention=frame_attention, gate=gate), breakdown
