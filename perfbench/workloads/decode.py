"""decode: ``evaluation.beam_decode`` with untrained ``ModelParameters.build`` weights.

No training runs, so the decode work does not depend on training numerics,
and the untrained model runs every sentence to max length, which fixes the
work per sentence. The target vocabulary has 2000 tokens, so the output
projection is real work; sources are 3-20 tokens long, so padding matters
to a batched decoder. Two phases: beam 1 at max length 8 (the ablation
setting) and beam 5 at max length 32, where ``_beam_one``'s full-prefix
re-decode dominates. Their batches are interleaved so that each phase holds
its share of the run's time and samples the whole run, not one end of it.

Inputs come from a recorded pool: the seed picks one of ``MODEL_VARIANTS``
parameter sets and an order over its ``POOL_BATCHES`` fixed batches, so
every hypothesis has a reference recorded at the parent commit.
"""

import json
import os
import time

import numpy as np

from harness import Stat

from safa import evaluation, model
from safa.corpus import BOS_ID, EOS_ID, RESERVED_TOKENS, Vocabulary
from safa.tensor import Tensor

UNIT = "decoded sentence"
VOCAB = 2000
BATCH = 4
POOL_BATCHES = 16
MODEL_VARIANTS = 4
FRAMES, FEATURE_DIM = 12, 16
PHASES = (
    # name, decode config, share of the run's time
    ("greedy", evaluation.DecodeConfig(beam_size=1, max_length=8), 0.25),
    ("beam", evaluation.DecodeConfig(beam_size=5, max_length=32), 0.75),
)
DECODE_CONFIGS = {name: dc for name, dc, _ in PHASES}
SCORE_SLACK = 1e-9
REFERENCE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "reference", "decode.json")


class State:
    pass


def build(variant):
    """(config, parameters, target vocabulary, batches) of one recorded model variant."""
    cfg = model.ModelConfig(
        src_vocab_size=VOCAB, tgt_vocab_size=VOCAB, video_feature_dim=FEATURE_DIM,
        encoder_layers=2, decoder_layers=2, d_model=32, d_ffn=64, heads=4,
        dropout=0.1, frames_per_clip=FRAMES,
    )
    params = model.ModelParameters.build(cfg, seed=variant)
    vocab = Vocabulary(list(RESERVED_TOKENS) + [f"w{i}" for i in range(len(RESERVED_TOKENS), VOCAB)])
    rng = np.random.default_rng([variant, 11])
    batches = []
    for _ in range(POOL_BATCHES):
        lengths = rng.integers(3, 21, size=BATCH)
        src = np.zeros((BATCH, lengths.max()), dtype=np.int64)
        mask = np.zeros(src.shape, dtype=bool)
        for i, n in enumerate(lengths):
            src[i, :n] = rng.integers(len(RESERVED_TOKENS), VOCAB, size=n)
            mask[i, :n] = True
        feats = model.VideoFeatureBatch(rng.standard_normal((BATCH, FRAMES, FEATURE_DIM)))
        refs = [
            " ".join(f"w{t}" for t in rng.integers(len(RESERVED_TOKENS), VOCAB, size=rng.integers(3, 13)))
            for _ in range(BATCH)
        ]
        batches.append((src, mask, feats, refs))
    return cfg, params, vocab, batches


def setup(seed, ctx):
    s = State()
    s.variant = seed % MODEL_VARIANTS
    s.cfg, s.params, s.vocab, s.batches = build(s.variant)
    s.order = [int(i) for i in np.random.default_rng(seed).permutation(POOL_BATCHES)]
    with open(REFERENCE, encoding="utf-8") as f:
        s.reference = json.load(f)["variants"][str(s.variant)]
    return s


def decode_batch(s, index, dc):
    src, mask, feats, refs = s.batches[index]
    hyps = evaluation.beam_decode(s.params, s.cfg, src, mask, feats, dc)
    evaluation.corpus_bleu([s.vocab.decode(h) for h in hyps], refs)
    return hyps


def greedy_rollout(s, index, max_length):
    """Beam 1 computed independently: argmax over full-prefix ``model.decode`` calls."""
    src, mask, feats, _ = s.batches[index]
    batch = model.TextBatch(
        src=src, src_mask=mask,
        tgt=np.full((src.shape[0], 2), BOS_ID, dtype=np.int64),
        tgt_mask=np.ones((src.shape[0], 2), dtype=bool),
        flags=np.zeros(src.shape[0], dtype=bool),
    )
    h_text = model.encode_text(batch, s.params, s.cfg)
    h_attn, _ = model.selective_attention(h_text, model.project_video(feats, s.params), s.cfg)
    fused, _ = model.gated_fusion(h_text, h_attn, s.params)
    out = []
    for i in range(src.shape[0]):
        row = Tensor(fused.data[i][None])
        ids = []
        for _ in range(max_length):
            prefix = np.array([[BOS_ID] + ids], dtype=np.int64)
            logits = model.decode(row, prefix, np.ones_like(prefix, dtype=bool), mask[i][None],
                                  s.params, s.cfg)
            logp = logits.data[0, -1] - np.logaddexp.reduce(logits.data[0, -1])
            token = int(np.argmax(logp))
            if token == EOS_ID:
                break
            ids.append(token)
        out.append(ids)
    return out


def _score(s, index, row, ids, length_penalty):
    src, mask, feats, _ = s.batches[index]
    return evaluation.hypothesis_score(
        s.params, s.cfg, src[row:row + 1], mask[row:row + 1],
        model.VideoFeatureBatch(feats.features[row:row + 1]), ids, length_penalty,
    )


def check(s, decoded):
    """Indices into ``decoded`` sentences that fail a check; run after timing."""
    bad = set()
    rollouts = {}
    for k, (phase, index, row, hyp) in enumerate(decoded):
        dc = DECODE_CONFIGS[phase]
        expected = s.reference[phase][index][row]
        if hyp != expected:
            worse = _score(s, index, row, hyp, dc.length_penalty)
            best = _score(s, index, row, expected, dc.length_penalty)
            if worse < best - SCORE_SLACK:
                bad.add(k)
        if phase == "greedy":
            if index not in rollouts:
                rollouts[index] = greedy_rollout(s, index, dc.max_length)
            if hyp != rollouts[index][row]:
                bad.add(k)
    return bad


def perturb(hyp):
    """A different hypothesis: the last token moved to the next ordinary token id."""
    if not hyp:
        return [len(RESERVED_TOKENS)]
    last = hyp[-1] - len(RESERVED_TOKENS)
    return hyp[:-1] + [(last + 1) % (VOCAB - len(RESERVED_TOKENS)) + len(RESERVED_TOKENS)]


def run(s, seconds, recorder):
    intervals = {name: [] for name, _, _ in PHASES}     # untraced operations only
    spent = {name: 0.0 for name, _, _ in PHASES}
    done = {name: 0 for name, _, _ in PHASES}
    decoded, tokens = [], 0
    min_ops = 2 if recorder.tracer else 1
    start = time.perf_counter()
    while min(done.values()) < min_ops or time.perf_counter() - start < seconds:
        total = sum(spent.values())
        # the phase furthest below its share of the time so far goes next
        phase, dc, _ = min(PHASES, key=lambda p: spent[p[0]] - p[2] * total)
        index = s.order[done[phase] % POOL_BATCHES]
        with recorder.op(phase, units=BATCH) as op:
            hyps = decode_batch(s, index, dc)
        spent[phase] += op["seconds"]
        done[phase] += 1
        if not op["traced"]:
            intervals[phase].append((op["start"], op["end"]))
            tokens += sum(len(h) for h in hyps)
        decoded.extend((phase, index, row, hyp) for row, hyp in enumerate(hyps))
    bad = check(s, decoded)
    return {
        "attempted": len(decoded), "failed": len(bad), "incorrect": len(bad),
        "stats": {
            "decode.greedy_ms_per_sent": Stat("ms", intervals["greedy"], 50, 1000.0 / BATCH),
            "decode.beam5_ms_per_sent": Stat("ms", intervals["beam"], 50, 1000.0 / BATCH),
            "decode.tokens_per_s": Stat("1/s", intervals["greedy"] + intervals["beam"], "rate",
                                        work=tokens),
        },
        "op": "decode.beam5_ms_per_sent", "work": "decode.tokens_per_s",
        "details": {},
    }
