"""Acceptance suite: one test per numbered criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import itertools
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.special import rel_entr, softmax
from scipy.stats import norm

from safa import cli
from safa.corpus import (
    SubtitleRecord,
    build_vocabulary,
    collect_translation_sets,
    flag_ambiguous_samples,
    krippendorff_alpha,
    normalize_text,
    pad_rows,
    VoteRecord,
    aggregate_votes,
)
from safa.evaluation import (
    DecodeConfig,
    SyntheticExperiment,
    _fuse_sources,
    beam_decode,
    corpus_bleu,
    gradient_check_full_loss,
    run_synthetic_experiment,
    variant_config,
)
from safa.model import (
    LossNormalizers,
    ModelConfig,
    ModelParameters,
    decode,
    fuse_sources,
    gaussian_target,
    total_loss,
)
from safa.tensor import Tensor
from safa.training import (
    Schedule,
    TrainConfig,
    central_frame_indices,
    lr_at_step,
    make_batches,
    train,
)


def _report(number, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({name}): {verdict} - {detail}")
    return ok


# ---------------------------------------------------------------------------
# 1. Gradient fidelity
# ---------------------------------------------------------------------------


def test_criterion_01_gradient_fidelity():
    start = time.monotonic()
    errors = [gradient_check_full_loss(seed, d_model=8, frames=4) for seed in range(10)]
    elapsed = time.monotonic() - start
    worst = np.max(errors)  # NaN if any seed's error is NaN; max() could skip it
    ok = worst < 1e-3 and elapsed < 120.0
    assert _report(
        1, "gradient fidelity", ok,
        f"max relative error {worst:.3e} over 10 seeds in {elapsed:.0f}s",
    ), f"max relative error {worst} (need < 1e-3) in {elapsed:.0f}s (need < 120s)"


# ---------------------------------------------------------------------------
# 2. Overfit sanity
# ---------------------------------------------------------------------------


def _toy_pairs(rng, count=32):
    pairs = set()
    while len(pairs) < count:
        src = " ".join(f"s{rng.integers(0, 12)}" for _ in range(int(rng.integers(2, 5))))
        tgt = " ".join(f"t{rng.integers(0, 12)}" for _ in range(int(rng.integers(2, 5))))
        pairs.add((src, tgt))
    return sorted(pairs)


def test_criterion_02_overfit_sanity():
    start = time.monotonic()
    rng = np.random.default_rng(11)
    records = [
        SubtitleRecord(id=f"toy{i:02d}", source_text=s, target_text=t,
                       start_ms=1000, end_ms=2000, video_id=f"toy{i:02d}")
        for i, (s, t) in enumerate(_toy_pairs(rng))
    ]
    features = {r.id: rng.normal(size=(4, 4)) for r in records}
    src_vocab = build_vocabulary(records, "source", min_count=1)
    tgt_vocab = build_vocabulary(records, "target", min_count=1)
    cfg = ModelConfig(
        src_vocab_size=len(src_vocab), tgt_vocab_size=len(tgt_vocab),
        video_feature_dim=4, encoder_layers=2, decoder_layers=2,
        d_model=32, d_ffn=64, heads=4, dropout=0.0, label_smoothing=0.0,
        frames_per_clip=4, frame_loss_weight=0.0, ambiguity_weight=1.0,
    )
    batches, _ = make_batches(records, src_vocab, tgt_vocab, 1024, seed=0)
    tc = TrainConfig(
        max_steps=500, seed=0, patience=1_000, clip_norm=1.0,
        schedule=Schedule(warmup_steps=50, lr_start=1e-6, lr_peak=3e-3),
    )
    params = ModelParameters.build(cfg, seed=0)
    result = train(params, cfg, batches, batches, features, tc)

    # token-weighted training loss of the returned checkpoint
    total_nll, total_tokens = 0.0, 0
    from safa.model import VideoFeatureBatch, label_smoothed_loss

    for batch in batches:
        text = batch.text
        fused, _, _ = fuse_sources(text, VideoFeatureBatch.stack(batch.video_ids, features), result.params, cfg)
        logits = decode(fused, text.tgt[:, :-1], text.tgt_mask[:, :-1], text.src_mask, result.params, cfg)
        per_sample = label_smoothed_loss(logits, text.tgt[:, 1:], text.tgt_mask[:, 1:], 0.0)
        counts = batch.text.tgt_mask[:, 1:].sum(axis=1)
        total_nll += float((per_sample.data * counts).sum())
        total_tokens += int(counts.sum())
    per_token = total_nll / total_tokens

    src, mask = pad_rows([src_vocab.encode(r.source_text) for r in records])
    from safa.model import VideoFeatureBatch

    feats = VideoFeatureBatch(np.stack([features[r.id] for r in records]))
    hyps = beam_decode(result.params, cfg, src, mask, feats, DecodeConfig(beam_size=1, max_length=8))
    exact = sum(tgt_vocab.decode(h) == r.target_text for h, r in zip(hyps, records))
    elapsed = time.monotonic() - start

    ok = per_token < 0.1 and exact >= 30 and elapsed < 300.0
    assert _report(
        2, "overfit sanity", ok,
        f"per-token loss {per_token:.4f} after {result.steps} steps, "
        f"{exact}/32 exact decodes, {elapsed:.0f}s",
    ), f"per-token {per_token}, exact {exact}/32, {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# 3. Synthetic disambiguation
# ---------------------------------------------------------------------------


def test_criterion_03_synthetic_disambiguation():
    start = time.monotonic()
    exp = SyntheticExperiment(seed=0)
    rows, _ = run_synthetic_experiment(exp, variants=["full", "baseline", "text_only"])
    elapsed = time.monotonic() - start
    acc = {row["variant"]: row["synthetic_accuracy"] for row in rows}
    ok = (
        acc["full"] >= 0.90
        and acc["text_only"] <= 0.55
        and acc["baseline"] >= 0.80
        and elapsed < 900.0
    )
    assert _report(
        3, "synthetic disambiguation", ok,
        f"full {acc['full']:.3f} (>=0.90), text-only {acc['text_only']:.3f} (<=0.55), "
        f"baseline {acc['baseline']:.3f} (>=0.80), {elapsed:.0f}s",
    ), acc


# ---------------------------------------------------------------------------
# 4. Frame-attention effect
# ---------------------------------------------------------------------------


def test_criterion_04_frame_attention_effect():
    # The frame loss pulls each token's frame attention toward the tempered
    # Gaussian target, so judge it by that pull: KL(attention || target) must
    # shrink against the unregularized model, and the central-third mass must
    # land on the target's own (0.3625 at T=1). A mass gap over the
    # unregularized model is no measure: that model drifts toward the
    # informative bump frames (about 0.50) while the target stays near uniform.
    kls = {"full": [], "no_frame_loss": []}
    masses = {"full": [], "no_frame_loss": []}
    for seed in (0, 1, 2):
        exp = SyntheticExperiment(seed=seed, bump="central")
        _, details = run_synthetic_experiment(exp, variants=["full", "no_frame_loss"])
        cfg = details["config"]
        src, mask, feats = details["test_inputs"]
        frames = feats.features.shape[1]
        # independent target oracle: scipy density values, tempered softmax
        z = np.linspace(-cfg.gaussian_halfwidth, cfg.gaussian_halfwidth, frames)
        density = norm.pdf(z, loc=cfg.gaussian_mean, scale=cfg.gaussian_std)
        target = softmax(density / cfg.temperature)
        central = central_frame_indices(frames)
        for variant in kls:
            _, attention = _fuse_sources(
                src, mask, feats, details["trained"][variant], variant_config(cfg, variant)
            )
            attention = attention.data
            kls[variant].append(float(rel_entr(attention, target).sum(axis=-1)[mask].mean()))
            masses[variant].append(float(attention[..., central].sum(axis=-1)[mask].mean()))
    target_mass = float(target[central].sum())
    ratios = [with_ / without for with_, without in zip(kls["full"], kls["no_frame_loss"])]
    distances = [abs(mass - target_mass) for mass in masses["full"]]
    ok = max(ratios) <= 0.25 and max(distances) <= 0.05

    def listed(values):
        return "[" + ", ".join(f"{v:.4f}" for v in values) + "]"

    assert _report(
        4, "frame-attention effect", ok,
        f"KL(attention||target) {np.mean(kls['full']):.4f} with frame loss vs "
        f"{np.mean(kls['no_frame_loss']):.4f} without, worst ratio {max(ratios):.3f} "
        f"(need <= 0.25); central mass {np.mean(masses['full']):.3f} with vs "
        f"{np.mean(masses['no_frame_loss']):.3f} without, target {target_mass:.4f}, "
        f"worst distance {max(distances):.3f} (need <= 0.05)",
    ), (
        f"seeds 0-2: KL with frame loss {listed(kls['full'])}, without "
        f"{listed(kls['no_frame_loss'])}, ratios {listed(ratios)} (need <= 0.25); "
        f"central mass with {listed(masses['full'])}, without "
        f"{listed(masses['no_frame_loss'])}, target {target_mass:.4f}, distances "
        f"{listed(distances)} (need <= 0.05)"
    )


# ---------------------------------------------------------------------------
# 5. Ambiguity-augmentation arithmetic
# ---------------------------------------------------------------------------


def test_criterion_05_ambiguity_arithmetic():
    checks = []

    def closed_form(losses, flags, weight, gamma, frame):
        losses = np.asarray(losses, dtype=np.float64)
        flags = np.asarray(flags, dtype=bool)
        term = 0.0
        if flags.sum():
            term += weight * losses[flags].mean()
        if (~flags).sum():
            term += losses[~flags].mean()
        return term + gamma * frame

    cases = [
        ([1.0, 3.0], [True, False], 2.0, 0.5, 0.4),          # hand example: 5.2
        ([0.7, 0.9, 1.4], [False, False, False], 7.0, 0.0, 0.0),  # w arbitrary, no flags
        ([0.7, 0.9, 1.4], [False, False, False], 1.0, 0.25, 0.8),  # w=1 reduction
        ([2.0, 4.0], [True, True], 3.0, 0.0, 0.0),            # empty unambiguous group
        ([2.0, 4.0], [True, True], 1.0, 1.0, 0.3),            # w=1, all flagged
        ([0.25, 0.5, 0.125, 4.0], [True, False, True, False], 5.0, 2.0, 0.01),
    ]
    worst = 0.0
    for losses, flags, weight, gamma, frame in cases:
        cfg = ModelConfig(
            src_vocab_size=8, tgt_vocab_size=8, video_feature_dim=4,
            ambiguity_weight=weight, frame_loss_weight=gamma,
        )
        breakdown = total_loss(Tensor(np.array(losses)), np.array(flags), Tensor(frame), cfg,
                               LossNormalizers.of(flags))
        expected = closed_form(losses, flags, weight, gamma, frame)
        worst = max(worst, abs(breakdown.total - expected))
        checks.append(abs(breakdown.total - expected) <= 1e-12)
    hand = total_loss(
        Tensor(np.array([1.0, 3.0])), np.array([True, False]), Tensor(0.4),
        ModelConfig(src_vocab_size=8, tgt_vocab_size=8, video_feature_dim=4,
                    ambiguity_weight=2.0, frame_loss_weight=0.5),
        LossNormalizers(2, 1, 1),
    )
    checks.append(abs(hand.total - 5.2) <= 1e-12)
    ok = all(checks)
    assert _report(
        5, "ambiguity-augmentation arithmetic", ok,
        f"{len(cases)} closed-form cases plus the 5.2 hand value, max |err| {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# 6. Gaussian target
# ---------------------------------------------------------------------------


def test_criterion_06_gaussian_target():
    z = np.linspace(-3.0, 3.0, 7)
    oracle = norm.pdf(z, loc=1.0, scale=1.0)
    expected = np.exp(oracle) / np.exp(oracle).sum()
    got = gaussian_target(7, 3.0, 1.0, 1.0, 1.0)
    oracle_err = np.abs(got - expected).max()

    low = gaussian_target(7, 3.0, 1.0, 1.0, 1e-3)
    one_hot = np.zeros(7)
    one_hot[4] = 1.0
    low_err = np.abs(low - one_hot).max()

    # softmax(p / T) = 1/n + (p - mean(p)) / (n T) + O(1/T^2): the density
    # values p span only 0.399, so the approach to uniform has rate 1/T
    high = gaussian_target(7, 3.0, 1.0, 1.0, 1e3)
    high_dev = np.abs(high - np.full(7, 1 / 7)).max()
    first_order = np.abs(oracle - oracle.mean()).max() / (7 * 1e3)
    rate_err = abs(high_dev - first_order)

    ok = oracle_err < 1e-10 and low_err < 1e-6 and rate_err < 1e-8
    assert _report(
        6, "gaussian target", ok,
        f"oracle err {oracle_err:.1e} (<1e-10), one-hot err {low_err:.1e} (<1e-6), "
        f"T=1e3 deviation from uniform {high_dev:.4e} vs first-order "
        f"max|p-mean(p)|/(7T) = {first_order:.4e}, |diff| {rate_err:.1e} (<1e-8)",
    ), (
        f"oracle err {oracle_err:.3e} (need < 1e-10), one-hot err {low_err:.3e} "
        f"(need < 1e-6), T=1e3 deviation from uniform {high_dev:.6e} vs first-order "
        f"prediction {first_order:.6e}: |diff| {rate_err:.3e} (need < 1e-8)"
    )


# ---------------------------------------------------------------------------
# 7. Pipeline oracle equivalence
# ---------------------------------------------------------------------------


def _traced_selection(targets, cross, pair_sim, threshold, schedule):
    """Independent straight trace of the relaxation procedure."""
    for level in schedule:
        kept = sorted(t for t in targets if cross[t] > level)
        if len(kept) < 2:
            continue
        ranked = sorted(
            (pair_sim[frozenset((a, b))], a, b)
            for a, b in itertools.combinations(kept, 2)
        )
        sim, first, second = ranked[0]
        if sim < threshold:
            return first, second, level, sim
    return None


def test_criterion_07_pipeline_oracles(brute_force_sets):
    sets_ok = True
    flags_ok = True
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 201))
        records = [
            SubtitleRecord(
                id=f"r{i}", source_text=f"s{rng.integers(0, 25)}",
                target_text=f"t{rng.integers(0, 50)}",
                start_ms=1000, end_ms=2000, video_id="v",
            )
            for i in range(n)
        ]
        sets = collect_translation_sets(records)
        got = {s.source_text: set(s.target_texts) for s in sets}
        sets_ok &= got == brute_force_sets(records)
        flags = flag_ambiguous_samples(records, sets)
        expected_flags = {
            r.id: normalize_text(r.source_text) in got for r in records
        }
        flags_ok &= flags == expected_flags

    from safa.corpus import AmbiguitySelectionConfig, select_ambiguous_sets

    selection_ok = True
    config = AmbiguitySelectionConfig()
    for case in range(20):
        rng = np.random.default_rng(500 + case)
        k = int(rng.integers(2, 6))
        targets = [f"t{j}" for j in range(k)]
        records = [
            SubtitleRecord(id=f"r{j}", source_text="shared", target_text=t,
                           start_ms=1000, end_ms=2000, video_id="v")
            for j, t in enumerate(targets)
        ]
        # prescribed similarity tables; quantized so comparisons are exact
        cross = {t: round(float(rng.integers(0, 21)) / 20.0, 2) for t in targets}
        pair_sim = {
            frozenset(p): round(float(rng.integers(0, 21)) / 20.0, 2)
            for p in itertools.combinations(targets, 2)
        }
        sets = collect_translation_sets(records)
        chosen = select_ambiguous_sets(
            sets, records, lambda s, t: cross[t], lambda a, b: pair_sim[frozenset((a, b))], config
        )
        expected = _traced_selection(targets, cross, pair_sim,
                                     config.target_threshold, config.parallel_schedule)
        if expected is None:
            selection_ok &= chosen == []
        else:
            first, second, level, sim = expected
            selection_ok &= (
                len(chosen) == 1
                and {chosen[0].first_target, chosen[0].second_target} == {first, second}
                and chosen[0].parallel_threshold == level
                and chosen[0].pair_similarity == sim
            )
    ok = sets_ok and flags_ok and selection_ok
    assert _report(
        7, "pipeline oracle equivalence", ok,
        "100 random corpora (sets+flags) and 20 prescribed selection cases match",
    ), (sets_ok, flags_ok, selection_ok)


# ---------------------------------------------------------------------------
# 8. Vote aggregation
# ---------------------------------------------------------------------------


def test_criterion_08_vote_rule_enumeration():
    choices = ("none", "first", "second", "both")
    mismatches = []
    for owner in ("first", "second"):
        for combo in itertools.product(choices, repeat=3):
            votes = [VoteRecord("t", owner, f"w{i}", c) for i, c in enumerate(combo)]
            expected = sum(1 for c in combo if c == owner) >= 2
            if aggregate_votes(votes)["t"] != expected:
                mismatches.append((owner, combo))
    ok = not mismatches
    assert _report(
        8, "vote aggregation", ok,
        f"all {4 ** 3 * 2} owner/choice combinations match the 2-of-3 rule",
    ), mismatches


# ---------------------------------------------------------------------------
# 9. Krippendorff's alpha
# ---------------------------------------------------------------------------


def test_criterion_09_krippendorff_alpha():
    perfect = krippendorff_alpha({f"u{i}": ["x", "x", "x"] for i in range(20)})
    hand = krippendorff_alpha(
        {"u1": ["a", "a"], "u2": ["a", "b"], "u3": ["b", "b"], "u4": ["b", "b"]}
    )
    rng = np.random.default_rng(123)
    random_ratings = {
        f"u{i}": list(rng.choice(["p", "q", "r"], size=3, p=[0.5, 0.3, 0.2]))
        for i in range(1000)
    }
    marginal_alpha = krippendorff_alpha(random_ratings)
    ok = perfect == 1.0 and abs(hand - 8.0 / 15.0) < 1e-9 and abs(marginal_alpha) < 0.05
    assert _report(
        9, "krippendorff alpha", ok,
        f"perfect {perfect}, hand-worked {hand:.12f} (8/15), "
        f"random-marginals {marginal_alpha:+.4f}",
    )


# ---------------------------------------------------------------------------
# 10. BLEU
# ---------------------------------------------------------------------------


def test_criterion_10_bleu():
    identity = corpus_bleu(["the cat sat on the mat"], ["the cat sat on the mat"])
    zero_case = corpus_bleu(["the the the cat"], ["the cat sat"])
    worksheet = corpus_bleu(["the cat sat on the mat"], ["the cat sat on a mat"])
    expected = 100.0 * (5 / 6 * 3 / 5 * 2 / 4 * 1 / 3) ** 0.25
    ok = (
        identity == pytest.approx(100.0, abs=1e-9)
        and zero_case == 0.0
        and worksheet == pytest.approx(expected, abs=1e-6)
    )
    assert _report(
        10, "bleu", ok,
        f"identity {identity:.2f}, zero-precision worksheet {zero_case:.2f}, "
        f"clipped worksheet {worksheet:.6f} vs {expected:.6f}",
    )


# ---------------------------------------------------------------------------
# 11. Schedule
# ---------------------------------------------------------------------------


def test_criterion_11_schedule():
    sched = Schedule()
    at_warmup = lr_at_step(2000, sched)
    decayed = lr_at_step(8000, sched)
    ok = at_warmup == 5e-3 and decayed == 2.5e-3
    assert _report(
        11, "learning-rate schedule", ok,
        f"lr(2000) = {at_warmup!r}, lr(8000) = {decayed!r}",
    )


# ---------------------------------------------------------------------------
# 12. Determinism
# ---------------------------------------------------------------------------


def _end_to_end(base: Path):
    base.mkdir()
    synth = base / "synth"
    assert cli.main([
        "synth", "--out-dir", str(synth), "--n-train", "64", "--n-val", "16",
        "--n-test", "16", "--frames", "6", "--feature-dim", "4", "--seed", "9",
    ]) == 0
    for stage, out in (("transets", "sets.jsonl"), ("flags", "flags.csv"), ("windows", "windows.jsonl")):
        assert cli.main([
            "pipeline", stage, "--in", str(synth / "train.jsonl"),
            "--out", str(base / out), "--seed", "9",
        ]) == 0
    ckpt = base / "model.ckpt"
    assert cli.main([
        "train", "--train", str(synth / "train.jsonl"), "--val", str(synth / "validation.jsonl"),
        "--features", str(synth / "features"), "--flags", str(synth / "flags.csv"),
        "--out", str(ckpt), "--vocab-min-count", "1", "--tokens-per-batch", "512",
        "--max-steps", "200", "--patience", "1000", "--warmup-steps", "50", "--lr-peak", "1e-3",
        "--encoder-layers", "1", "--decoder-layers", "1", "--d-model", "16",
        "--d-ffn", "32", "--heads", "2", "--dropout", "0.1", "--seed", "9",
    ]) == 0
    assert cli.main([
        "decode", "--corpus", str(synth / "test.jsonl"), "--features", str(synth / "features"),
        "--checkpoint", str(ckpt), "--model-config", str(base / "model.ckpt.cfg"),
        "--src-vocab", str(base / "model.ckpt.src-vocab.txt"),
        "--tgt-vocab", str(base / "model.ckpt.tgt-vocab.txt"),
        "--out", str(base / "hyps.txt"), "--beam", "2", "--max-length", "6",
    ]) == 0


def _snapshot(base: Path):
    return {
        str(p.relative_to(base)): p.read_bytes()
        for p in base.rglob("*") if p.is_file()
    }


def test_criterion_12_end_to_end_determinism(tmp_path):
    import shutil

    base = tmp_path / "run"
    _end_to_end(base)
    first = _snapshot(base)
    shutil.rmtree(base)
    _end_to_end(base)
    second = _snapshot(base)
    same_listing = sorted(first) == sorted(second)
    different = [rel for rel in first if first[rel] != second.get(rel)]
    ok = same_listing and not different
    assert _report(
        12, "end-to-end determinism", ok,
        f"{len(first)} output files byte-identical across two identical seeded runs",
    ), f"differing files: {different}"
