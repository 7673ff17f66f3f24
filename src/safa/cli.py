"""Command-line interface: corpus pipeline, training, decoding, evaluation.

Every subcommand writes a manifest sidecar before its outputs (command
line, resolved options, seed, input digests, tool version; no timestamps),
funnels all randomness through --seed, and never mutates its inputs.
Exit codes: 0 success, 1 input error, 2 internal error.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import (
    BOS_ID,
    EOS_ID,
    AmbiguitySelectionConfig,
    MatrixScorer,
    Vocabulary,
    aggregate_votes,
    baseline_similarity,
    build_context_corpus,
    build_splits,
    build_vocabulary,
    collect_translation_sets,
    compute_clip_window,
    flag_ambiguous_samples,
    krippendorff_alpha,
    load_similarity_matrix,
    load_video_features,
    pad_rows,
    parse_corpus,
    parse_vote_file,
    save_video_features,
    select_ambiguous_sets,
    write_corpus,
)
from .evaluation import (
    DecodeConfig,
    SyntheticExperiment,
    beam_decode,
    corpus_bleu,
    export_attention,
    gradient_check_full_loss,
    read_sentences,
    run_synthetic_experiment,
    write_results_table,
)
from .model import ModelConfig, ModelParameters, TextBatch, VideoFeatureBatch
from .training import (
    Schedule,
    TrainConfig,
    generate_synthetic_dataset,
    make_batches,
    save_metrics,
    train,
)


class _Parser(argparse.ArgumentParser):
    """argparse with the documented exit status for bad usage."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest_path(out):
    out = Path(out)
    if out.suffix == "" and out.is_dir():
        return out / "manifest.json"
    return out.with_name(out.name + ".manifest.json")


def write_manifest(out, args, inputs, resolved=None):
    """Record the invocation next to ``out`` before any output is written."""
    snapshot = {}
    for key, value in sorted(vars(args).items()):
        if key in ("func", "argv"):
            continue
        snapshot[key] = str(value) if isinstance(value, Path) else value
    if resolved:
        snapshot["resolved"] = resolved
    manifest = {
        "command": args.argv,
        "config": snapshot,
        "seed": getattr(args, "seed", 0),
        "inputs": {str(p): _digest(p) for p in inputs},
        "version": __version__,
    }
    path = _manifest_path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, sort_keys=True, indent=2)
        f.write("\n")


def _load_features_dir(directory, video_ids):
    directory = Path(directory)
    features = {}
    for vid in video_ids:
        features[vid] = load_video_features(directory / f"{vid}.evaf")
    return features


def _jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")


def _write_bool_csv(path, header, rows):
    """Write ``(key, flag)`` rows as ``key,true|false`` lines under a two-column header."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(header + "\n")
        for key, flag in rows:
            f.write(f"{key},{'true' if flag else 'false'}\n")


def _read_bool_csv(path, header):
    """Read a table written by ``_write_bool_csv`` into {key: flag}."""
    table = {}
    with open(path, encoding="utf-8") as f:
        first = f.readline().strip()
        if first != header:
            raise ValueError(f"{path}:1: bad header {first!r}, expected {header!r}")
        for lineno, line in enumerate(f, 2):
            line = line.strip()
            if not line:
                continue
            key, comma, value = line.rpartition(",")
            if not comma or value not in ("true", "false"):
                raise ValueError(f"{path}:{lineno}: expected '<key>,true' or '<key>,false', got {line!r}")
            table[key] = value == "true"
    return table


# ---------------------------------------------------------------------------
# pipeline subcommands
# ---------------------------------------------------------------------------


def cmd_windows(args):
    records, _ = parse_corpus(args.input, lenient=args.lenient)
    write_manifest(args.out, args, [args.input])
    rows = []
    for r in records:
        w = compute_clip_window(r, args.duration_ms)
        rows.append(
            {
                "id": r.id, "video_id": w.video_id,
                "window_start_ms": w.window_start_ms,
                "window_end_ms": w.window_end_ms,
                "frame_count": w.frame_count,
            }
        )
    _jsonl(args.out, rows)


def cmd_transets(args):
    records, _ = parse_corpus(args.input, lenient=args.lenient)
    write_manifest(args.out, args, [args.input])
    sets = collect_translation_sets(records)
    _jsonl(
        args.out,
        [
            {"source_text": s.source_text, "member_ids": s.member_ids, "target_texts": s.target_texts}
            for s in sets
        ],
    )


def _scorers(args, records):
    if args.scorer == "baseline":
        return baseline_similarity, baseline_similarity, []
    cross = MatrixScorer(records, load_similarity_matrix(args.cross_matrix), "source", "target")
    target = MatrixScorer(records, load_similarity_matrix(args.target_matrix), "target", "target")
    return cross, target, [args.cross_matrix, args.target_matrix]


def cmd_ambiguous(args):
    records, _ = parse_corpus(args.input, lenient=args.lenient)
    cross, target, extra_inputs = _scorers(args, records)
    write_manifest(args.out, args, [args.input, *extra_inputs])
    schedule = tuple(float(x) for x in args.schedule.split(","))
    config = AmbiguitySelectionConfig(args.target_threshold, schedule)
    sets = collect_translation_sets(records)
    chosen = select_ambiguous_sets(sets, records, cross, target, config)
    _jsonl(
        args.out,
        [
            {
                "source_text": c.source_text,
                "first_target": c.first_target,
                "second_target": c.second_target,
                "first_id": c.first_id,
                "second_id": c.second_id,
                "parallel_threshold": c.parallel_threshold,
                "pair_similarity": c.pair_similarity,
            }
            for c in chosen
        ],
    )


def cmd_votes(args):
    votes = parse_vote_file(args.input)
    write_manifest(args.out, args, [args.input])
    _write_bool_csv(args.out, "task_id,helpful", sorted(aggregate_votes(votes).items()))


def cmd_alpha(args):
    votes = parse_vote_file(args.input)
    ratings = {}
    for v in votes:
        ratings.setdefault(v.task_id, []).append(v.choice)
    alpha = krippendorff_alpha(ratings)
    print(f"{alpha:.6f}")
    if args.out:
        write_manifest(args.out, args, [args.input])
        Path(args.out).write_text(f"{alpha:.6f}\n", encoding="utf-8")


def cmd_splits(args):
    records, _ = parse_corpus(args.input, lenient=args.lenient)
    helpful = _read_bool_csv(args.decisions, "task_id,helpful")
    write_manifest(args.out, args, [args.input, args.decisions])
    assignment = build_splits(records, helpful, seed=args.seed, evaluation_cap=args.eval_cap)
    with open(args.out, "w", encoding="utf-8") as f:
        f.write("id,split\n")
        for r in records:
            f.write(f"{r.id},{assignment[r.id]}\n")


def cmd_vocab(args):
    records, _ = parse_corpus(args.input, lenient=args.lenient)
    write_manifest(args.out, args, [args.input])
    vocab = build_vocabulary(records, args.side, args.min_count)
    vocab.save(args.out)


def cmd_flags(args):
    records, _ = parse_corpus(args.input, lenient=args.lenient)
    write_manifest(args.out, args, [args.input])
    flags = flag_ambiguous_samples(records, collect_translation_sets(records))
    _write_bool_csv(args.out, "id,flag", [(r.id, flags[r.id]) for r in records])


def cmd_context(args):
    records, _ = parse_corpus(args.input, lenient=args.lenient)
    write_manifest(args.out, args, [args.input])
    write_corpus(args.out, build_context_corpus(records))


# ---------------------------------------------------------------------------
# synth / train / decode / bleu / ablate / attn-dump / grad-check
# ---------------------------------------------------------------------------


def cmd_synth(args):
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_manifest(out_dir / "dataset", args, [])
    n = args.n_train + args.n_val + args.n_test
    records, features, flags = generate_synthetic_dataset(
        n, args.frames, args.feature_dim, seed=args.seed, bump=args.bump
    )
    splits = (
        ("train", records[: args.n_train]),
        ("validation", records[args.n_train: args.n_train + args.n_val]),
        ("test", records[args.n_train + args.n_val:]),
    )
    feature_dir = out_dir / "features"
    feature_dir.mkdir(exist_ok=True)
    for name, subset in splits:
        write_corpus(out_dir / f"{name}.jsonl", subset)
    for rid, feat in features.items():
        save_video_features(feature_dir / f"{rid}.evaf", feat)
    _write_bool_csv(out_dir / "flags.csv", "id,flag", [(r.id, flags[r.id]) for r in records])


_MODEL_OVERRIDES = (
    "encoder_layers", "decoder_layers", "d_model", "d_ffn", "heads", "dropout",
    "label_smoothing", "temperature", "frame_loss_weight", "ambiguity_weight",
)


def _resolve_model_config(args, src_vocab, tgt_vocab, features):
    """Precedence: command-line flags > config file > defaults."""
    kwargs = {}
    if args.model_config:
        file_cfg = ModelConfig.from_text(Path(args.model_config).read_text(encoding="utf-8"))
        kwargs = {k: getattr(file_cfg, k) for k in _MODEL_OVERRIDES}
    for key in _MODEL_OVERRIDES:
        value = getattr(args, key, None)
        if value is not None:
            kwargs[key] = value
    sample = next(iter(features.values()))
    return ModelConfig(
        src_vocab_size=len(src_vocab),
        tgt_vocab_size=len(tgt_vocab),
        video_feature_dim=sample.shape[1],
        frames_per_clip=sample.shape[0],
        **kwargs,
    )


def _add_model_flags(parser):
    parser.add_argument("--model-config", type=Path, help="key = value config file")
    parser.add_argument("--encoder-layers", type=int, dest="encoder_layers")
    parser.add_argument("--decoder-layers", type=int, dest="decoder_layers")
    parser.add_argument("--d-model", type=int, dest="d_model")
    parser.add_argument("--d-ffn", type=int, dest="d_ffn")
    parser.add_argument("--heads", type=int)
    parser.add_argument("--dropout", type=float)
    parser.add_argument("--label-smoothing", type=float, dest="label_smoothing")
    parser.add_argument("--temperature", type=float)
    parser.add_argument("--frame-loss-weight", type=float, dest="frame_loss_weight")
    parser.add_argument("--ambiguity-weight", type=float, dest="ambiguity_weight")


def _load_vocabs(args, train_records):
    if args.src_vocab and args.tgt_vocab:
        return Vocabulary.load(args.src_vocab), Vocabulary.load(args.tgt_vocab), []
    src = build_vocabulary(train_records, "source", args.vocab_min_count)
    tgt = build_vocabulary(train_records, "target", args.vocab_min_count)
    return src, tgt, ["built"]


def cmd_train(args):
    train_records, _ = parse_corpus(args.train)
    val_records, _ = parse_corpus(args.val)
    flags = _read_bool_csv(args.flags, "id,flag") if args.flags else {}
    src_vocab, tgt_vocab, built = _load_vocabs(args, train_records)
    video_ids = sorted({r.video_id for r in train_records + val_records})
    features = _load_features_dir(args.features, video_ids)
    cfg = _resolve_model_config(args, src_vocab, tgt_vocab, features)

    inputs = [args.train, args.val] + ([args.flags] if args.flags else [])
    if not built:
        inputs += [args.src_vocab, args.tgt_vocab]
    from dataclasses import asdict

    write_manifest(args.out, args, inputs, resolved=asdict(cfg))

    train_batches, skipped_train = make_batches(
        train_records, src_vocab, tgt_vocab, args.tokens_per_batch, seed=args.seed, flags_by_id=flags
    )
    val_batches, _ = make_batches(
        val_records, src_vocab, tgt_vocab, args.tokens_per_batch, seed=args.seed, flags_by_id=flags
    )
    if skipped_train:
        print(f"skipped {len(skipped_train)} oversized sentences: {skipped_train}", file=sys.stderr)
    tc = TrainConfig(
        tokens_per_batch=args.tokens_per_batch, max_steps=args.max_steps,
        max_epochs=args.max_epochs, patience=args.patience, seed=args.seed,
        clip_norm=None if args.no_clip else args.clip_norm,
        checkpoint_every=args.checkpoint_every,
        schedule=Schedule(args.warmup_steps, args.lr_start, args.lr_peak),
    )
    params = ModelParameters.build(cfg, seed=args.seed)

    def periodic_save(step, current):
        current.save(Path(f"{args.out}.step{step:06d}"))

    result = train(params, cfg, train_batches, val_batches, features, tc,
                   checkpoint_callback=periodic_save if args.checkpoint_every else None)

    out = Path(args.out)
    result.params.save(out)
    out.with_suffix(out.suffix + ".cfg").write_text(cfg.to_text(), encoding="utf-8")
    if built:
        src_vocab.save(out.with_suffix(out.suffix + ".src-vocab.txt"))
        tgt_vocab.save(out.with_suffix(out.suffix + ".tgt-vocab.txt"))
    save_metrics(args.metrics or out.with_suffix(out.suffix + ".metrics.jsonl"), result.metrics)
    line = f"steps={result.steps} best_val_loss={result.best_val_loss:.6f}"
    if result.diverged:
        print(f"diverged {line} reason={result.diverged_reason}")
        return 2
    print(f"ok {line}")
    return 0


def _decode_inputs(records, src_vocab, features):
    src, mask = pad_rows([src_vocab.encode(r.source_text) for r in records])
    feats = VideoFeatureBatch.stack([r.video_id for r in records], features)
    return src, mask, feats


def _load_model(args, records):
    src_vocab = Vocabulary.load(args.src_vocab)
    tgt_vocab = Vocabulary.load(args.tgt_vocab)
    cfg = ModelConfig.from_text(Path(args.model_config).read_text(encoding="utf-8"))
    params = ModelParameters.load(args.checkpoint, cfg)
    features = _load_features_dir(args.features, sorted({r.video_id for r in records}))
    expected = (cfg.frames_per_clip, cfg.video_feature_dim)
    for vid, clip in features.items():
        if clip.shape != expected:
            raise ValueError(
                f"{args.model_config}: (frames_per_clip, video_feature_dim) is {expected}, "
                f"but clip {vid!r} has (frames, dim) {clip.shape}"
            )
    return src_vocab, tgt_vocab, cfg, params, features


def cmd_decode(args):
    records, _ = parse_corpus(args.corpus)
    src_vocab, tgt_vocab, cfg, params, features = _load_model(args, records)
    write_manifest(args.out, args, [args.corpus, args.checkpoint, args.model_config,
                                    args.src_vocab, args.tgt_vocab])
    src, mask, feats = _decode_inputs(records, src_vocab, features)
    dc = DecodeConfig(args.beam, args.max_length, args.length_penalty)
    hypotheses = beam_decode(params, cfg, src, mask, feats, dc)
    with open(args.out, "w", encoding="utf-8") as f:
        for ids in hypotheses:
            f.write(tgt_vocab.decode(ids) + "\n")


def cmd_bleu(args):
    hyps = read_sentences(args.hyp)
    refs = read_sentences(args.ref)
    score = corpus_bleu(hyps, refs)
    print(f"{score:.2f}")
    print("meteor: unavailable (needs external linguistic resources)", file=sys.stderr)


def cmd_ablate(args):
    write_manifest(args.out, args, [])
    exp = SyntheticExperiment(
        n_train=args.n_train, n_val=args.n_val, n_test=args.n_test,
        frames=args.frames, feature_dim=args.feature_dim, seed=args.seed,
        bump=args.bump, max_steps=args.max_steps, dropout=args.dropout,
        lr_peak=args.lr_peak, patience=args.patience,
    )
    variants = args.variants.split(",") if args.variants else None
    rows, details = run_synthetic_experiment(exp, variants)
    write_results_table(args.out, rows)
    print("variant,bleu,synthetic_accuracy,central_attention")
    for row in rows:
        central = details["central_attention"][row["variant"]]
        print(f"{row['variant']},{row['bleu']:.4f},{row['synthetic_accuracy']:.4f},{central:.4f}")


def cmd_attn_dump(args):
    records, _ = parse_corpus(args.corpus)
    src_vocab, tgt_vocab, cfg, params, features = _load_model(args, records)
    write_manifest(args.out, args, [args.corpus, args.checkpoint, args.model_config,
                                    args.src_vocab, args.tgt_vocab])
    src, src_mask, feats = _decode_inputs(records, src_vocab, features)
    tgt, tgt_mask = pad_rows(
        [[BOS_ID] + tgt_vocab.encode(r.target_text) + [EOS_ID] for r in records]
    )
    batch = TextBatch(src=src, src_mask=src_mask, tgt=tgt, tgt_mask=tgt_mask,
                      flags=np.zeros(len(records), dtype=bool))
    export_attention(params, cfg, batch, feats, src_vocab, args.out)


def cmd_grad_check(args):
    worst = 0.0
    for offset in range(args.repeats):
        err = gradient_check_full_loss(args.seed + offset, d_model=args.d_model, frames=args.frames)
        print(f"seed {args.seed + offset}: max relative error {err:.3e}")
        worst = max(worst, err)
    print(f"max relative error {worst:.3e}")
    return 0 if worst < 1e-3 else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _common(parser):
    parser.add_argument("--seed", type=int, default=0, help="seed for all randomness (default 0)")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker-thread cap (the reference path is single-threaded)")


def build_parser():
    parser = _Parser(prog="safa", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    pipeline = sub.add_parser("pipeline", help="corpus-construction stages")
    stages = pipeline.add_subparsers(dest="stage", required=True)

    def stage(name, func, **kwargs):
        p = stages.add_parser(name, **kwargs)
        p.add_argument("--in", dest="input", type=Path, required=True)
        p.add_argument("--lenient", action="store_true", help="skip malformed lines instead of failing")
        _common(p)
        p.set_defaults(func=func)
        return p

    p = stage("windows", cmd_windows, help="compute 10 s clip windows")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--duration-ms", dest="duration_ms", type=int)

    p = stage("transets", cmd_transets, help="collect translation sets")
    p.add_argument("--out", type=Path, required=True)

    p = stage("ambiguous", cmd_ambiguous, help="select ambiguous translation sets")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--scorer", choices=("baseline", "matrix"), default="baseline")
    p.add_argument("--cross-matrix", dest="cross_matrix", type=Path)
    p.add_argument("--target-matrix", dest="target_matrix", type=Path)
    p.add_argument("--target-threshold", dest="target_threshold", type=float, default=0.3)
    p.add_argument("--schedule", default="0.8,0.7,0.6,0.5,0.4,0.3")

    p = stage("votes", cmd_votes, help="aggregate crowd votes into helpful decisions")
    p.add_argument("--out", type=Path, required=True)

    p = stage("alpha", cmd_alpha, help="Krippendorff's alpha over vote choices")
    p.add_argument("--out", type=Path)

    p = stage("splits", cmd_splits, help="train/validation/test assignment")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--decisions", type=Path, required=True)
    p.add_argument("--eval-cap", dest="eval_cap", type=int)

    p = stage("vocab", cmd_vocab, help="build a vocabulary file")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--side", choices=("source", "target"), required=True)
    p.add_argument("--min-count", dest="min_count", type=int, default=3)

    p = stage("flags", cmd_flags, help="per-record possibly-ambiguous flags")
    p.add_argument("--out", type=Path, required=True)

    p = stage("context", cmd_context, help="widen sources with neighboring subtitles")
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("synth", help="generate the synthetic disambiguation dataset")
    p.add_argument("--out-dir", dest="out_dir", type=Path, required=True)
    p.add_argument("--n-train", dest="n_train", type=int, default=2000)
    p.add_argument("--n-val", dest="n_val", type=int, default=200)
    p.add_argument("--n-test", dest="n_test", type=int, default=200)
    p.add_argument("--frames", type=int, default=12)
    p.add_argument("--feature-dim", dest="feature_dim", type=int, default=16)
    p.add_argument("--bump", choices=("central", "edge"), default="central")
    _common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the translation model")
    p.add_argument("--train", type=Path, required=True)
    p.add_argument("--val", type=Path, required=True)
    p.add_argument("--features", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--flags", type=Path)
    p.add_argument("--src-vocab", dest="src_vocab", type=Path)
    p.add_argument("--tgt-vocab", dest="tgt_vocab", type=Path)
    p.add_argument("--vocab-min-count", dest="vocab_min_count", type=int, default=3)
    p.add_argument("--metrics", type=Path)
    p.add_argument("--tokens-per-batch", dest="tokens_per_batch", type=int, default=16_000)
    p.add_argument("--max-steps", dest="max_steps", type=int, default=0)
    p.add_argument("--max-epochs", dest="max_epochs", type=int, default=1_000)
    p.add_argument("--patience", type=int, default=5)
    p.add_argument("--warmup-steps", dest="warmup_steps", type=int, default=2_000)
    p.add_argument("--lr-start", dest="lr_start", type=float, default=1e-7)
    p.add_argument("--lr-peak", dest="lr_peak", type=float, default=5e-3)
    p.add_argument("--clip-norm", dest="clip_norm", type=float, default=1.0)
    p.add_argument("--no-clip", dest="no_clip", action="store_true")
    p.add_argument("--checkpoint-every", dest="checkpoint_every", type=int, default=0,
                   help="also save the live parameters every N steps")
    _add_model_flags(p)
    _common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("decode", help="beam-decode a corpus")
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--features", type=Path, required=True)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--model-config", dest="model_config", type=Path, required=True)
    p.add_argument("--src-vocab", dest="src_vocab", type=Path, required=True)
    p.add_argument("--tgt-vocab", dest="tgt_vocab", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--beam", type=int, default=5)
    p.add_argument("--max-length", dest="max_length", type=int, default=64)
    p.add_argument("--length-penalty", dest="length_penalty", type=float, default=1.0)
    _common(p)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("bleu", help="corpus BLEU of a hypothesis file against a reference file")
    p.add_argument("--hyp", type=Path, required=True)
    p.add_argument("--ref", type=Path, required=True)
    _common(p)
    p.set_defaults(func=cmd_bleu)

    p = sub.add_parser("ablate", help="synthetic-task ablation table")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--n-train", dest="n_train", type=int, default=2000)
    p.add_argument("--n-val", dest="n_val", type=int, default=200)
    p.add_argument("--n-test", dest="n_test", type=int, default=200)
    p.add_argument("--frames", type=int, default=12)
    p.add_argument("--feature-dim", dest="feature_dim", type=int, default=16)
    p.add_argument("--bump", choices=("central", "edge"), default="central")
    p.add_argument("--max-steps", dest="max_steps", type=int, default=600)
    p.add_argument("--patience", type=int, default=5)
    p.add_argument("--dropout", type=float, default=0.1)
    p.add_argument("--lr-peak", dest="lr_peak", type=float, default=2e-3)
    p.add_argument("--variants", help="comma-separated subset of variants")
    _common(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("attn-dump", help="export per-token frame attention")
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--features", type=Path, required=True)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--model-config", dest="model_config", type=Path, required=True)
    p.add_argument("--src-vocab", dest="src_vocab", type=Path, required=True)
    p.add_argument("--tgt-vocab", dest="tgt_vocab", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    _common(p)
    p.set_defaults(func=cmd_attn_dump)

    p = sub.add_parser("grad-check", help="finite-difference check of the full loss")
    p.add_argument("--d-model", dest="d_model", type=int, default=8)
    p.add_argument("--frames", type=int, default=4)
    p.add_argument("--repeats", type=int, default=1, help="consecutive seeds to check")
    _common(p)
    p.set_defaults(func=cmd_grad_check)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = argv
    try:
        code = args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - the documented internal-error path
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0 if code is None else code


if __name__ == "__main__":
    sys.exit(main())
