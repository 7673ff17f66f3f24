"""Decoding, corpus BLEU, ablation runs, and frame-attention export."""

import json
import math
from collections import Counter
from dataclasses import dataclass, replace
from itertools import groupby

import numpy as np

from .corpus import BOS_ID, EOS_ID, pad_rows
from .model import (
    DecoderCache,
    ModelParameters,
    TextBatch,
    VideoFeatureBatch,
    decode,
    encode_text,
    forward_full,
    gated_fusion,
    project_video,
    selective_attention,
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


def _fuse_sources(src, src_mask, features, params, cfg):
    batch = TextBatch(
        src=src, src_mask=src_mask,
        tgt=np.full((src.shape[0], 2), BOS_ID, dtype=np.int64),
        tgt_mask=np.ones((src.shape[0], 2), dtype=bool),
        flags=np.zeros(src.shape[0], dtype=bool),
    )
    h_text = encode_text(batch, params, cfg)
    h_video = project_video(features, params)
    h_attn, frame_attention = selective_attention(h_text, h_video, cfg)
    fused, _gate = gated_fusion(h_text, h_attn, params)
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


def _offers(logits, k):
    """The k best next tokens of one row of logits, as (token, log-probability).

    Best first, ties to the lower id: the order of a stable argsort of the
    row. Only the tokens at or above the k-th best value are sorted; a
    stable sort of the whole vocabulary per row took about a third of a
    beam-5 decode's time.
    """
    logp = logits - np.logaddexp.reduce(logits)
    cut = np.partition(logp, -k)[-k] if k < logp.size else -np.inf
    ids = np.flatnonzero(logp >= cut)
    ids = ids[np.argsort(-logp[ids], kind="stable")[:k]]
    return [(int(token), float(logp[token])) for token in ids]


def _beam_group(params, cfg, fused, src_mask, dc):
    """Beam search over a group of sentences, one cached step for all live beams.

    Per sentence and step, each beam offers its top ``beam_size`` tokens,
    beam by beam. The offers are stable-sorted by cumulative log-probability
    and taken in that order, eos offers into ``finished``, until
    ``beam_size`` beams live. A sentence with no live beam leaves the group.
    """
    k, penalty = dc.beam_size, dc.length_penalty
    cache = DecoderCache(fused, src_mask, params, cfg, dc.max_length)
    rows = [(s, [], 0.0) for s in range(src_mask.shape[0])]  # (sentence, ids, logprob) per cache row
    finished = [[] for _ in rows]
    for _step in range(dc.max_length):
        last = np.array([[ids[-1] if ids else BOS_ID] for _, ids, _ in rows], dtype=np.int64)
        logits = decode(None, last, None, None, params, cfg, cache=cache).data[:, 0]
        kept, parents = [], []
        for s, group in groupby(range(len(rows)), key=lambda r: rows[r][0]):
            offers = [
                (rows[r][2] + logprob, r, token)
                for r in group for token, logprob in _offers(logits[r], k)
            ]
            offers.sort(key=lambda o: -o[0])
            live = 0
            for logprob, r, token in offers:
                ids = rows[r][1]
                if token == EOS_ID:
                    finished[s].append((ids, _score(logprob, len(ids) + 1, penalty)))
                    continue
                kept.append((s, ids + [token], logprob))
                parents.append(r)
                live += 1
                if live >= k:
                    break
        del logits  # free the (rows, |V|) block before the cache's gather
        rows = kept
        if not rows:
            break
        cache.reorder(np.array(parents))
    for s, ids, logprob in rows:  # ran out of length without eos
        finished[s].append((ids, _score(logprob, max(len(ids), 1), penalty)))
    return [max(done, key=lambda c: c[1])[0] for done in finished]


def hypothesis_score(params, cfg, src, src_mask, features, token_ids, length_penalty=1.0):
    """Normalized log-probability of one hypothesis (for search-property checks)."""
    fused, _ = _fuse_sources(src, src_mask, features, params, cfg)
    ids = list(token_ids) + [EOS_ID]
    prefix = np.array([[BOS_ID] + ids[:-1]], dtype=np.int64)
    mask = np.ones_like(prefix, dtype=bool)
    logits = decode(fused, prefix, mask, src_mask, params, cfg)
    logp = logits.data[0] - np.logaddexp.reduce(logits.data[0], axis=-1)[:, None]
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
    with open(path, encoding="utf-8") as f:
        return [line.rstrip("\n") for line in f]


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------

ABLATION_VARIANTS = {
    "full": {},
    "no_frame_loss": {"frame_loss_weight": 0.0},
    "no_ambiguity_weight": {"ambiguity_weight": 1.0},
    "baseline": {"frame_loss_weight": 0.0, "ambiguity_weight": 1.0},
    "text_only": {"frame_loss_weight": 0.0, "ambiguity_weight": 1.0},  # video zeroed
}


def variant_config(cfg, variant):
    if variant not in ABLATION_VARIANTS:
        raise ValueError(f"unknown ablation variant {variant!r}")
    return replace(cfg, **ABLATION_VARIANTS[variant])


def run_ablation_suite(cfg, train_batches, val_batches, test_records, features,
                       tgt_vocab, train_config, variants=None, decode_config=None,
                       make_test_inputs=None):
    """Train and score each variant from shared initial parameters.

    ``make_test_inputs`` supplies (src, src_mask, VideoFeatureBatch) for the
    test records. For the text_only variant every video feature is zeroed in
    both training and decoding. Returns ({variant, bleu, synthetic_accuracy}
    rows, trained parameters per variant).
    """
    from .training import train

    variants = variants or list(ABLATION_VARIANTS)
    rows = []
    trained = {}
    for variant in variants:
        vcfg = variant_config(cfg, variant)
        feats = features
        if variant == "text_only":
            feats = {k: np.zeros_like(v) for k, v in features.items()}
        params = ModelParameters.build(vcfg, seed=train_config.seed)
        result = train(params, vcfg, train_batches, val_batches, feats, train_config)
        trained[variant] = result.params
        src, src_mask, test_feats = make_test_inputs(feats)
        hyps = beam_decode(result.params, vcfg, src, src_mask, test_feats, decode_config)
        hyp_text = [tgt_vocab.decode(h) for h in hyps]
        refs = [r.target_text for r in test_records]
        exact = sum(h == r for h, r in zip(hyp_text, refs)) / len(refs)
        rows.append(
            {
                "variant": variant,
                "bleu": corpus_bleu(hyp_text, refs),
                "synthetic_accuracy": exact,
            }
        )
    return rows, trained


def write_results_table(path, rows):
    with open(path, "w", encoding="utf-8") as f:
        f.write("variant,bleu,synthetic_accuracy\n")
        for row in rows:
            f.write(f"{row['variant']},{row['bleu']:.4f},{row['synthetic_accuracy']:.4f}\n")


def mean_central_attention(params, cfg, src, src_mask, features):
    """Mean frame-attention mass on the central third, over unmasked tokens."""
    from .training import central_frame_indices

    _, frame_attention = _fuse_sources(src, src_mask, features, params, cfg)
    central = central_frame_indices(frame_attention.data.shape[-1])
    mass = frame_attention.data[..., central].sum(axis=-1)
    return float(mass[src_mask].mean())


# ---------------------------------------------------------------------------
# Full-loss gradient check and the synthetic disambiguation experiment
# ---------------------------------------------------------------------------


def gradient_check_full_loss(seed, d_model=8, frames=4, epsilon=1e-4):
    """Finite-difference check of the composed loss on one random tiny batch."""
    from .model import ModelConfig
    from .tensor import check_gradients

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
    feats = VideoFeatureBatch(rng.normal(size=(2, frames, 3)))

    def fn(tensors):
        _, breakdown = forward_full(batch, feats, ModelParameters(tensors, cfg), cfg)
        return breakdown.loss

    return check_gradients(fn, params.tensors, epsilon=epsilon)


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
    """Generate the synthetic corpus, run the ablation suite, score variants.

    Returns (rows, details) where details carry trained parameters, the
    shared config, test inputs, and each variant's mean central attention.
    """
    from .corpus import build_vocabulary
    from .training import Schedule, TrainConfig, generate_synthetic_dataset, make_batches

    records, features, flags = generate_synthetic_dataset(
        exp.n_train + exp.n_val + exp.n_test, exp.frames, exp.feature_dim,
        seed=exp.seed, bump=exp.bump,
    )
    train_records = records[: exp.n_train]
    val_records = records[exp.n_train: exp.n_train + exp.n_val]
    test_records = records[exp.n_train + exp.n_val:]

    from .model import ModelConfig

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

    def make_test_inputs(feats):
        src, mask = pad_rows([src_vocab.encode(r.source_text) for r in test_records])
        return src, mask, VideoFeatureBatch.stack([r.id for r in test_records], feats)

    rows, trained = run_ablation_suite(
        cfg, train_batches, val_batches, test_records, features, tgt_vocab, tc,
        variants=variants, decode_config=DecodeConfig(beam_size=1, max_length=8),
        make_test_inputs=make_test_inputs,
    )
    central = {}
    src, mask, test_feats = make_test_inputs(features)
    for variant, params in trained.items():
        feats_v = test_feats
        if variant == "text_only":
            feats_v = VideoFeatureBatch(np.zeros_like(test_feats.features))
        central[variant] = mean_central_attention(
            params, variant_config(cfg, variant), src, mask, feats_v
        )
    details = {
        "config": cfg,
        "trained": trained,
        "central_attention": central,
        "test_inputs": (src, mask, test_feats),
        "vocabularies": (src_vocab, tgt_vocab),
    }
    return rows, details


# ---------------------------------------------------------------------------
# Attention export
# ---------------------------------------------------------------------------


def export_attention(params, cfg, batch, features, src_vocab, path):
    """Dump per-token frame attention and token-averaged per-frame weights.

    Values are written with full float64 round-trip precision, so reading
    the file back reproduces the forward pass attention bit-for-bit.
    """
    output, _ = forward_full(batch, features, params, cfg)
    attention = output.frame_attention.data
    with open(path, "w", encoding="utf-8") as f:
        for i in range(batch.size):
            keep = batch.src_mask[i]
            rows = attention[i][keep]
            tokens = [src_vocab.tokens[t] for t in batch.src[i][keep]]
            record = {
                "source_tokens": tokens,
                "frames": int(attention.shape[-1]),
                "weights": [[float(w) for w in row] for row in rows],
                "frame_aggregate": [float(w) for w in rows.mean(axis=0)],
            }
            f.write(json.dumps(record) + "\n")


def read_attention_dump(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f]
