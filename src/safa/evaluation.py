"""Decoding, corpus BLEU, ablation runs, and frame-attention export."""

import math
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .corpus import BOS_ID, EOS_ID, _utf8_named, build_vocabulary, pad_rows, write_jsonl
from .model import (
    DecoderCache,
    ModelConfig,
    ModelParameters,
    TextBatch,
    VideoFeatureBatch,
    decode,
    decode_losses,
    forward_full,
    fuse_sources,
)
from .tensor import Tensor, check_gradients
from .training import (
    Schedule,
    TrainConfig,
    _Child,
    central_frame_indices,
    make_batches,
    synthetic_splits,
    train,
)


@dataclass
class DecodeConfig:
    beam_size: int = 5
    max_length: int = 64
    length_penalty: float = 1.0

    def __post_init__(self):
        if self.beam_size < 1:
            raise ValueError("beam_size must be >= 1")
        if self.max_length < 1:
            raise ValueError("max_length must be >= 1")
        if not math.isfinite(self.length_penalty):
            raise ValueError(f"length_penalty must be finite, got {self.length_penalty}")


def _fuse_sources(src, src_mask, features, params, cfg):
    """``fuse_sources`` over bare source ids: no step of the fusion reads the batch's placeholder target."""
    batch = TextBatch(
        src=src, src_mask=src_mask,
        tgt=np.full((src.shape[0], 2), BOS_ID, dtype=np.int64),
        tgt_mask=np.ones((src.shape[0], 2), dtype=bool),
        flags=np.zeros(src.shape[0], dtype=bool),
    )
    fused, frame_attention, _gate = fuse_sources(batch, features, params, cfg)
    return fused, frame_attention


# Sentences searched together: one step's logits are (group * beam_size, |V|).
# Past 16, larger groups barely speed a beam-5 decode up, while its peak
# memory keeps growing with the group (measurements in README, Decoding).
DECODE_GROUP = 16


def beam_decode(params, cfg, src, src_mask, features, decode_config=None):
    """Length-normalized beam search; beam 1 is a greedy rollout.

    Returns one list of generated token ids (no bos/eos) per sentence.
    Sentences go through in groups of ``DECODE_GROUP``, and one cached
    decoder step advances every live beam of a group. Deterministic: ties
    break toward the lower token id, as in a stable argsort.
    """
    dc = decode_config or DecodeConfig()
    hypotheses = []
    for start in range(0, src.shape[0], DECODE_GROUP):
        group = slice(start, start + DECODE_GROUP)
        fused, _ = _fuse_sources(
            src[group], src_mask[group], VideoFeatureBatch(features.features[group]), params, cfg
        )
        hypotheses.extend(_beam_group(params, cfg, fused, src_mask[group], dc))
    return hypotheses


def _score(logprob, length, penalty):
    return logprob / (length ** penalty)


def log_normalize(logits, scratch=None):
    """Log-probabilities over the last axis, in place: the one normalizer of decoding and scoring.

    The max-shifted log-softmax, ``(x - max) - log(sum(exp(x - max)))``, as
    ``smoothed_cross_entropy`` computes it in training. It overwrites and
    returns ``logits``, so the caller hands over an array it owns. The
    exponentials go to ``scratch``, an array of the same shape, or to a new
    array. Not ``np.logaddexp.reduce``: that reduction runs sequentially and
    takes about 8x as long per 2000-token row, for the same values within a
    few ulps.
    """
    logits -= logits.max(axis=-1, keepdims=True)
    logits -= np.log(np.exp(logits, out=scratch).sum(axis=-1, keepdims=True))
    return logits


def _top_k(logp, k, scratch):
    """Every row's k best columns of a (rows, |V|) block, as flat (row, column) arrays.

    Row by row, best first, ties to the lower column: the first k of each
    row's stable argsort. One partition, in ``scratch`` (an array of
    ``logp``'s shape), finds each row's k-th best value; only the entries at
    or above it are sorted, and a row whose tie straddles that value keeps
    its k lowest columns.
    """
    v = logp.shape[1]
    cut = -np.inf
    if k < v:
        np.copyto(scratch, logp)
        scratch.partition(v - k, axis=1)
        cut = scratch[:, v - k, None]
    rows, cols = np.divmod(np.flatnonzero(logp >= cut), v)
    order = np.lexsort((-logp[rows, cols], rows))
    rows, cols = rows[order], cols[order]
    keep = np.arange(rows.size) - np.searchsorted(rows, rows) < k
    return rows[keep], cols[keep]


def _beam_group(params, cfg, fused, src_mask, dc):
    """Beam search over a group of sentences, one cached step for all live beams.

    Per sentence and step, each beam offers its top ``beam_size`` tokens,
    beam by beam. The offers are stable-sorted by cumulative log-probability
    and taken in that order, eos offers into ``finished``, until
    ``beam_size`` beams live. A sentence with no live beam leaves the group.
    Each step does this for the whole (rows, |V|) block at once.
    """
    k, penalty = dc.beam_size, dc.length_penalty
    cache = DecoderCache(fused, src_mask, params, cfg)  # cache.source: each row's sentence
    history = np.empty((cache.source.size, 0), dtype=np.int64)  # (rows, step) generated ids
    logprob = np.zeros(cache.source.size)
    finished = [[] for _ in cache.source]
    # the exponentials and the partition of every step; a new (rows, |V|)
    # array per step would be mapped and page-faulted afresh each time
    scratch = np.empty((cache.source.size * k, cfg.tgt_vocab_size))
    for step in range(dc.max_length):
        n = cache.source.size
        last = history[:, -1:] if step else np.full((n, 1), BOS_ID, dtype=np.int64)
        logits = decode(None, last, None, None, params, cfg, cache=cache).data[:, 0]
        logp = log_normalize(logits, scratch[:n])
        rows, tokens = _top_k(logp, k, scratch[:n])
        total = logprob[rows] + logp[rows, tokens]
        del logits, logp  # free the (rows, |V|) block before the cache's gather
        s = cache.source[rows]
        order = np.lexsort((-total, s))
        rows, tokens, total, s = rows[order], tokens[order], total[order], s[order]
        # an offer is taken while fewer than k non-eos offers of its sentence come before it
        live = tokens != EOS_ID
        ahead = np.cumsum(live) - live
        taken = ahead - ahead[np.searchsorted(s, s)] < k
        ended, keep = taken & ~live, taken & live
        for r, lp in zip(rows[ended], total[ended].tolist()):
            finished[cache.source[r]].append((history[r].tolist(), _score(lp, step + 1, penalty)))
        parents = rows[keep]
        logprob = total[keep]
        history = np.concatenate([history[parents], tokens[keep, None]], axis=1)
        cache.reorder(parents)
        if not parents.size:
            break
    for s, ids, lp in zip(cache.source, history.tolist(), logprob.tolist()):  # ran out of length without eos
        finished[s].append((ids, _score(lp, max(len(ids), 1), penalty)))
    return [max(done, key=lambda c: c[1])[0] for done in finished]


def hypothesis_score(params, cfg, src, src_mask, features, token_ids, length_penalty=1.0):
    """Normalized log-probability of one hypothesis (for search-property checks)."""
    fused, _ = _fuse_sources(src, src_mask, features, params, cfg)
    ids = list(token_ids) + [EOS_ID]
    prefix = np.array([[BOS_ID] + ids[:-1]], dtype=np.int64)
    mask = np.ones_like(prefix, dtype=bool)
    logits = decode(fused, prefix, mask, src_mask, params, cfg)
    logp = log_normalize(logits.data[0])
    total = float(sum(logp[t, tok] for t, tok in enumerate(ids)))
    return _score(total, len(ids), length_penalty)


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(hypotheses, references):
    """Corpus-level BLEU-4 with clipping and brevity penalty, in [0, 100].

    Single reference per hypothesis, whitespace tokens, no smoothing: a
    zero modified precision at any order zeroes the score.
    """
    if len(hypotheses) != len(references):
        raise ValueError("hypothesis and reference counts differ")
    matched = [0] * 4
    total = [0] * 4
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_tokens = hyp.split()
        ref_tokens = ref.split()
        if not ref_tokens:
            raise ValueError("empty reference sentence")
        hyp_len += len(hyp_tokens)
        ref_len += len(ref_tokens)
        for n in range(1, 5):
            hyp_counts = _ngrams(hyp_tokens, n)
            ref_counts = _ngrams(ref_tokens, n)
            matched[n - 1] += sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
            total[n - 1] += max(len(hyp_tokens) - n + 1, 0)
    # orders with no hypothesis n-grams at all are vacuous, not zero: the
    # identity corpus must score 100 even when every sentence is short
    orders = [n for n in range(4) if total[n] > 0]
    if hyp_len == 0 or not orders:
        return 0.0
    if any(matched[n] == 0 for n in orders):
        return 0.0
    log_precision = sum(math.log(matched[n] / total[n]) for n in orders) / len(orders)
    brevity = min(1.0, math.exp(1.0 - ref_len / hyp_len))
    return 100.0 * brevity * math.exp(log_precision)


def read_sentences(path):
    with _utf8_named(path), open(path, encoding="utf-8") as f:
        return [line.rstrip("\n") for line in f]


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------

# variant -> (ModelConfig overrides, whether every video feature is zeroed)
ABLATION_VARIANTS = {
    "full": ({}, False),
    "no_frame_loss": ({"frame_loss_weight": 0.0}, False),
    "no_ambiguity_weight": ({"ambiguity_weight": 1.0}, False),
    "baseline": ({"frame_loss_weight": 0.0, "ambiguity_weight": 1.0}, False),
    "text_only": ({"frame_loss_weight": 0.0, "ambiguity_weight": 1.0}, True),
}


def variant_config(cfg, variant):
    if variant not in ABLATION_VARIANTS:
        raise ValueError(f"unknown ablation variant {variant!r}")
    return replace(cfg, **ABLATION_VARIANTS[variant][0])


def variant_features(variant, features):
    """The clip features ``variant`` trains and decodes on: all zeros if it drops the video."""
    if not ABLATION_VARIANTS[variant][1]:
        return features
    return {k: np.zeros_like(v) for k, v in features.items()}


def write_results_table(path, rows):
    with open(path, "w", encoding="utf-8") as f:
        f.write("variant,bleu,synthetic_accuracy\n")
        for row in rows:
            f.write(f"{row['variant']},{row['bleu']:.4f},{row['synthetic_accuracy']:.4f}\n")


def mean_central_attention(params, cfg, src, src_mask, features):
    """Mean frame-attention mass on the central third, over unmasked tokens."""
    _, frame_attention = _fuse_sources(src, src_mask, features, params, cfg)
    central = central_frame_indices(frame_attention.data.shape[-1])
    mass = frame_attention.data[..., central].sum(axis=-1)
    return float(mass[src_mask].mean())


# ---------------------------------------------------------------------------
# Full-loss gradient check and the synthetic disambiguation experiment
# ---------------------------------------------------------------------------


class _ReadRecorder(dict):
    """A parameter dict that notes every name looked up through it."""

    def __init__(self, tensors):
        super().__init__(tensors)
        self.read = set()

    def __getitem__(self, name):
        self.read.add(name)
        return super().__getitem__(name)


def _gradient_check_inputs(seed, d_model, frames):
    """(cfg, params, batch, features) of the full-loss gradient check at ``seed``."""
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(
        src_vocab_size=8, tgt_vocab_size=8, video_feature_dim=3,
        encoder_layers=1, decoder_layers=1, d_model=d_model, d_ffn=2 * d_model,
        heads=2, dropout=0.0, frames_per_clip=frames,
    )
    params = ModelParameters.build(cfg, seed=seed)
    src = rng.integers(4, 8, size=(2, 3))
    tgt = rng.integers(4, 8, size=(2, 4))
    tgt[:, 0] = BOS_ID
    tgt[:, -1] = EOS_ID
    batch = TextBatch(
        src=src, src_mask=np.ones((2, 3), dtype=bool),
        tgt=tgt, tgt_mask=np.ones((2, 4), dtype=bool),
        flags=np.array([True, False]),
    )
    return cfg, params, batch, VideoFeatureBatch(rng.normal(size=(2, frames, 3)))


def gradient_check_full_loss(seed, d_model=8, frames=4):
    """Finite-difference check of the composed loss on one random tiny batch.

    A parameter ``fuse_sources`` does not read cannot change the fused
    sources, so those parameters are checked through ``decode_losses`` on
    the fused sources computed once; the parameters fusion reads, found by
    recording its lookups, through the full forward. The tail records the
    same tape entries in the same order either way, so the errors equal a
    single check of ``forward_full`` over every parameter. A parameter that
    neither fusion nor the tail reads is skipped: its central difference is
    exactly 0 and its gradient ``None``, which reads as 0, so its error is 0.
    The tail's check runs in a child made by ``training._Child.fork`` while
    this process checks fusion's parameters; fusion's error is raised first,
    as if the two ran one after the other, and the child is then stopped
    unheard. Where ``os.fork`` is missing or fails, the child's in-process
    stand-in runs the tail's check after fusion's.
    """
    cfg, params, batch, feats = _gradient_check_inputs(seed, d_model, frames)
    recorder = _ReadRecorder(params.tensors)
    recorded = ModelParameters(recorder)
    fused, frame_attention, _gate = fuse_sources(batch, feats, recorded, cfg)
    fused, frame_attention = Tensor(fused.data), Tensor(frame_attention.data)
    fusion = {name: t for name, t in params.items() if name in recorder.read}

    # both read the perturbed entries through ``params``, which holds the same tensors
    def full(_):
        return forward_full(batch, feats, params, cfg)[1].loss

    def tail(_):
        return decode_losses(fused, frame_attention, batch, feats, params, cfg)[1].loss

    def tail_error(_):
        decode_losses(fused, frame_attention, batch, feats, recorded, cfg)
        rest = {name: t for name, t in params.items() if name in recorder.read and name not in fusion}
        return check_gradients(tail, rest)

    child = _Child.fork(tail_error)
    child.ask(None)
    try:
        fusion_error = check_gradients(full, fusion)
        return np.maximum(fusion_error, child.answer())
    finally:
        child.stop()


@dataclass
class SyntheticExperiment:
    """Knobs for the desk-scale disambiguation run; defaults fit one CPU."""

    n_train: int = 2000
    n_val: int = 200
    n_test: int = 200
    frames: int = 12
    feature_dim: int = 16
    seed: int = 0
    bump: str = "central"
    d_model: int = 32
    d_ffn: int = 64
    layers: int = 2
    heads: int = 4
    dropout: float = 0.1
    temperature: float = 1.0
    frame_loss_weight: float = 0.5
    ambiguity_weight: float = 2.0
    tokens_per_batch: int = 2000
    max_steps: int = 600
    patience: int = 5
    warmup_steps: int = 100
    lr_start: float = 1e-7
    lr_peak: float = 2e-3


def run_synthetic_experiment(exp, variants=None):
    """Generate the synthetic corpus, then train, decode and score each variant.

    Every variant starts from the same initial parameters. A variant that
    drops the video (text_only) sees every feature zeroed in both training
    and decoding. Returns ({variant, bleu, synthetic_accuracy} rows,
    details) where details carry trained parameters, the shared config,
    test inputs, and each variant's mean central attention.
    """
    variants = list(variants or ABLATION_VARIANTS)
    for variant in variants:
        if variant not in ABLATION_VARIANTS:
            raise ValueError(f"unknown ablation variant {variant!r}")
    (train_records, val_records, test_records), features, flags = synthetic_splits(
        exp.n_train, exp.n_val, exp.n_test, exp.frames, exp.feature_dim, seed=exp.seed, bump=exp.bump,
    )
    src_vocab = build_vocabulary(train_records, "source", min_count=1)
    tgt_vocab = build_vocabulary(train_records, "target", min_count=1)
    cfg = ModelConfig(
        src_vocab_size=len(src_vocab), tgt_vocab_size=len(tgt_vocab),
        video_feature_dim=exp.feature_dim, encoder_layers=exp.layers,
        decoder_layers=exp.layers, d_model=exp.d_model, d_ffn=exp.d_ffn,
        heads=exp.heads, dropout=exp.dropout, frames_per_clip=exp.frames,
        temperature=exp.temperature, frame_loss_weight=exp.frame_loss_weight,
        ambiguity_weight=exp.ambiguity_weight,
    )
    train_batches, _ = make_batches(
        train_records, src_vocab, tgt_vocab, exp.tokens_per_batch,
        seed=exp.seed, flags_by_id=flags,
    )
    val_batches, _ = make_batches(
        val_records, src_vocab, tgt_vocab, exp.tokens_per_batch,
        seed=exp.seed, flags_by_id=flags,
    )
    tc = TrainConfig(
        tokens_per_batch=exp.tokens_per_batch, max_steps=exp.max_steps,
        patience=exp.patience, seed=exp.seed,
        schedule=Schedule(exp.warmup_steps, exp.lr_start, exp.lr_peak),
    )
    src, mask = pad_rows([src_vocab.encode(r.source_text) for r in test_records])
    test_ids = [r.id for r in test_records]
    refs = [r.target_text for r in test_records]
    dc = DecodeConfig(beam_size=1, max_length=8)
    rows, trained, central = [], {}, {}
    for variant in variants:
        vcfg = variant_config(cfg, variant)
        feats = variant_features(variant, features)
        params = train(ModelParameters.build(vcfg, seed=tc.seed), vcfg, train_batches, val_batches,
                       feats, tc).params
        test_feats = VideoFeatureBatch.stack(test_ids, feats)
        hyp_text = [tgt_vocab.decode(h) for h in beam_decode(params, vcfg, src, mask, test_feats, dc)]
        rows.append(
            {
                "variant": variant,
                "bleu": corpus_bleu(hyp_text, refs),
                "synthetic_accuracy": sum(h == r for h, r in zip(hyp_text, refs)) / len(refs),
            }
        )
        trained[variant] = params
        central[variant] = mean_central_attention(params, vcfg, src, mask, test_feats)
    details = {
        "config": cfg,
        "trained": trained,
        "central_attention": central,
        "test_inputs": (src, mask, VideoFeatureBatch.stack(test_ids, features)),
    }
    return rows, details


# ---------------------------------------------------------------------------
# Attention export
# ---------------------------------------------------------------------------


def export_attention(params, cfg, src, src_mask, features, src_vocab, path):
    """Dump per-token frame attention and token-averaged per-frame weights.

    Values are written with full float64 round-trip precision, so reading
    the file back reproduces the forward pass attention bit-for-bit. Only
    the encoder and the frame attention run: no target is needed.
    """
    _, frame_attention = _fuse_sources(src, src_mask, features, params, cfg)
    frames = frame_attention.shape[-1]
    kept = ((ids[keep], rows[keep]) for ids, keep, rows in zip(src, src_mask, frame_attention.data))
    write_jsonl(path, ({"source_tokens": [src_vocab.tokens[t] for t in ids], "frames": frames,
                        "weights": rows.tolist(), "frame_aggregate": rows.mean(axis=0).tolist()}
                       for ids, rows in kept))
