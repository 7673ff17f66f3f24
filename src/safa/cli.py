"""Command-line interface: corpus pipeline, training, decoding, evaluation.

Every subcommand that writes a file writes a manifest sidecar before its
outputs (command line, resolved options, seed, BLAS threads, input digests,
tool version; no timestamps): all but ``bleu`` and ``grad-check``, which
only print, and ``pipeline alpha`` only when given --out. None mutates its
inputs. The commands with
randomness (``synth``, ``train``, ``ablate``, ``grad-check`` and ``pipeline
splits``) take all of it from --seed; the other pipeline stages accept
--seed and ignore it, and ``decode``, ``attn-dump`` and ``bleu`` have none.
Exit codes: 0 success, 1 input error, 2 internal error. An input error
that a flag's value causes starts with that flag.
"""

import argparse
import hashlib
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import (
    CLIP_WINDOW_MS,
    AmbiguitySelectionConfig,
    MatrixScorer,
    Vocabulary,
    _utf8_named,
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
    write_jsonl,
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
from .model import ModelConfig, ModelParameters, VideoFeatureBatch
from .training import (
    Schedule,
    TrainConfig,
    blas_threads,
    make_batches,
    synthetic_splits,
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


def write_manifest(out, args, inputs, resolved=None):
    """Record the invocation and the BLAS thread setting next to ``out`` before any output is written."""
    snapshot = {"threads": blas_threads()}
    for key, value in sorted(vars(args).items()):
        if key in ("func", "argv"):
            continue
        snapshot[key] = str(value) if isinstance(value, Path) else value
    if resolved:
        snapshot["resolved"] = resolved
    manifest = {
        "command": args.argv,
        "config": snapshot,
        "inputs": {str(p): _digest(p) for p in inputs},
        "version": __version__,
    }
    if "seed" in snapshot:  # a command without randomness has no --seed
        manifest["seed"] = snapshot["seed"]
    out = Path(out)
    path = out.with_name(out.name + ".manifest.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, sort_keys=True, indent=2)
        f.write("\n")


def _load_features_dir(directory, video_ids, shape=None, shape_source=None):
    """{id: clip} of ``<directory>/<id>.evaf``, each of ``shape`` from ``shape_source``, else the first clip's."""
    features = {}
    for vid in video_ids:
        path = Path(directory) / f"{vid}.evaf"
        clip = load_video_features(path)
        if shape is None:
            shape, shape_source = clip.shape, path
        elif clip.shape != shape:
            raise ValueError(f"{path}: (frames, dim) is {clip.shape}, but {shape_source} has {shape}")
        features[vid] = clip
    return features


def _write_bool_csv(path, header, rows):
    """Write ``(key, flag)`` rows as ``key,true|false`` lines under a two-column header."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(header + "\n")
        for key, flag in rows:
            f.write(f"{key},{'true' if flag else 'false'}\n")


def _read_bool_csv(path, header):
    """Read a table written by ``_write_bool_csv`` into {key: flag}."""
    table = {}
    with _utf8_named(path), open(path, encoding="utf-8") as f:
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


def _read_corpus(args):
    """The stage's ``--in`` records; lines that ``--lenient`` skipped are reported on stderr."""
    records, skipped = parse_corpus(args.input, lenient=args.lenient)
    if skipped:
        print(f"skipped {len(skipped)} malformed lines of {args.input}: {skipped}", file=sys.stderr)
    return records


def cmd_windows(args):
    if args.duration_ms is not None and args.duration_ms < CLIP_WINDOW_MS:
        raise ValueError(f"duration_ms must be >= {CLIP_WINDOW_MS}, the clip window, got {args.duration_ms}")
    records = _read_corpus(args)
    write_manifest(args.out, args, [args.input])
    write_jsonl(args.out, [{"id": r.id, **vars(compute_clip_window(r, args.duration_ms))} for r in records])


def cmd_transets(args):
    records = _read_corpus(args)
    write_manifest(args.out, args, [args.input])
    write_jsonl(args.out, [vars(s) for s in collect_translation_sets(records)])


def _scorers(args, records):
    for flag, path in (("--cross-matrix", args.cross_matrix), ("--target-matrix", args.target_matrix)):
        if args.scorer == "baseline" and path is not None:
            raise ValueError(f"{flag}: only --scorer matrix reads a similarity matrix")
        if args.scorer == "matrix" and path is None:
            raise ValueError(f"--scorer matrix needs {flag}")
    if args.scorer == "baseline":
        return baseline_similarity, baseline_similarity, []
    cross = MatrixScorer(records, load_similarity_matrix(args.cross_matrix), "source", "target")
    target = MatrixScorer(records, load_similarity_matrix(args.target_matrix), "target", "target")
    return cross, target, [args.cross_matrix, args.target_matrix]


def cmd_ambiguous(args):
    try:
        schedule = tuple(float(x) for x in args.schedule.split(","))
    except ValueError:
        raise ValueError(f"parallel_schedule must be comma-separated numbers, got {args.schedule!r}") from None
    config = AmbiguitySelectionConfig(args.target_threshold, schedule)
    records = _read_corpus(args)
    cross, target, extra_inputs = _scorers(args, records)
    write_manifest(args.out, args, [args.input, *extra_inputs])
    chosen = select_ambiguous_sets(collect_translation_sets(records), records, cross, target, config)
    write_jsonl(args.out, [vars(c) for c in chosen])


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
    records = _read_corpus(args)
    helpful = _read_bool_csv(args.decisions, "task_id,helpful")
    assignment = build_splits(records, helpful, seed=args.seed, evaluation_cap=args.eval_cap)
    write_manifest(args.out, args, [args.input, args.decisions])
    with open(args.out, "w", encoding="utf-8") as f:
        f.write("id,split\n")
        for r in records:
            f.write(f"{r.id},{assignment[r.id]}\n")


def cmd_vocab(args):
    records = _read_corpus(args)
    write_manifest(args.out, args, [args.input])
    vocab = build_vocabulary(records, args.side, args.min_count)
    vocab.save(args.out)


def cmd_flags(args):
    records = _read_corpus(args)
    write_manifest(args.out, args, [args.input])
    flags = flag_ambiguous_samples(records, collect_translation_sets(records))
    _write_bool_csv(args.out, "id,flag", [(r.id, flags[r.id]) for r in records])


def cmd_context(args):
    records = _read_corpus(args)
    write_manifest(args.out, args, [args.input])
    write_corpus(args.out, build_context_corpus(records))


# ---------------------------------------------------------------------------
# synth / train / decode / bleu / ablate / attn-dump / grad-check
# ---------------------------------------------------------------------------


def cmd_synth(args):
    splits, features, flags = synthetic_splits(
        args.n_train, args.n_val, args.n_test, args.frames, args.feature_dim, seed=args.seed, bump=args.bump
    )
    out_dir = Path(args.out_dir)
    write_manifest(out_dir / "dataset", args, [])
    feature_dir = out_dir / "features"
    feature_dir.mkdir(exist_ok=True)
    for name, subset in zip(("train", "validation", "test"), splits):
        write_corpus(out_dir / f"{name}.jsonl", subset)
    for rid, feat in features.items():
        save_video_features(feature_dir / f"{rid}.evaf", feat)
    _write_bool_csv(out_dir / "flags.csv", "id,flag", flags.items())


_MODEL_OVERRIDES = (
    "encoder_layers", "decoder_layers", "d_model", "d_ffn", "heads", "dropout",
    "label_smoothing", "temperature", "frame_loss_weight", "ambiguity_weight",
)


@contextmanager
def _naming(path):
    """Turn a ValueError raised inside into an input error that names ``path``."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# the dest of the flag that sets a config field, where the two names differ
_FLAG_DESTS = {"beam_size": "beam", "parallel_schedule": "schedule", "frames_per_clip": "frames",
               "evaluation_cap": "eval_cap"}


def _flag(field):
    """The flag that sets config ``field``."""
    return "--" + _FLAG_DESTS.get(field, field).replace("_", "-")


def _add_field_flags(parser, cls, names, override=False):
    """Add ``--<dest>`` for each field of the dataclass ``cls`` in ``names``, with the field's type.

    The default is the field's, or None with ``override``, so that an unset
    flag leaves the field to another source.
    """
    by_name = {f.name: f for f in fields(cls)}
    for name in names:
        field = by_name[name]
        parser.add_argument(_flag(name), dest=_FLAG_DESTS.get(name, name), type=field.type,
                            default=None if override else field.default)


def _field_values(args, cls):
    """{field: value} for each field of the dataclass ``cls`` that a flag of ``args`` sets (None sets nothing)."""
    given = vars(args)
    dests = {f.name: _FLAG_DESTS.get(f.name, f.name) for f in fields(cls)}
    return {name: given[dest] for name, dest in dests.items() if given.get(dest) is not None}


@contextmanager
def _flag_named(args):
    """Prefix a ValueError that starts with a config field with the flag of ``args`` that sets it."""
    try:
        yield
    except ValueError as exc:
        field = str(exc).split(" ", 1)[0]
        if _FLAG_DESTS.get(field, field) not in vars(args):
            raise
        raise ValueError(f"{_flag(field)}: {exc}") from None


def _require(items, path, what):
    """Raise an input error naming ``path`` when ``items`` is empty."""
    if not items:
        raise ValueError(f"{path}: {what}")


def _resolve_model_config(args, src_vocab, tgt_vocab, features):
    """Flags beat the --model-config file, which beats the defaults.

    The file may set any subset of keys. The data decides the vocabulary
    sizes and the clip shape; a file value that disagrees is an error.
    """
    sample = next(iter(features.values()))
    data = {"src_vocab_size": len(src_vocab), "tgt_vocab_size": len(tgt_vocab),
            "frames_per_clip": sample.shape[0], "video_feature_dim": sample.shape[1]}
    flags = _field_values(args, ModelConfig)
    kwargs = data
    if args.model_config:
        with _naming(args.model_config):
            kwargs = ModelConfig.parse_text(args.model_config.read_text(encoding="utf-8"))
            for key, value in data.items():
                if kwargs.setdefault(key, value) != value:
                    raise ValueError(f"{key} is {kwargs[key]}, but the data gives {value}")
    try:
        return ModelConfig(**{**kwargs, **flags})
    except ValueError as exc:
        raise ValueError(f"{_model_input_at_fault(kwargs, flags, args.model_config)}: {exc}") from None


def _model_input_at_fault(kwargs, flags, path):
    """What an invalid model config blames.

    The file at ``path`` when its values fail without the flags; otherwise
    the flags that fail alone over them, or every flag given. The data's
    values alone always hold, so without a file the flags are at fault.
    """
    def valid(values):
        try:
            ModelConfig(**values)
        except ValueError:
            return False
        return True

    if not flags or not valid(kwargs):
        return path
    alone = [key for key, value in flags.items() if not valid({**kwargs, key: value})]
    return ", ".join(_flag(key) for key in alone or flags)


def cmd_train(args):
    tc = TrainConfig(**{**_field_values(args, TrainConfig),
                        "clip_norm": None if args.no_clip else args.clip_norm,
                        "schedule": Schedule(**_field_values(args, Schedule))})
    train_records, _ = parse_corpus(args.train)
    val_records, _ = parse_corpus(args.val)
    _require(train_records, args.train, "no records to train on")
    _require(val_records, args.val, "no records to validate on")
    flags = _read_bool_csv(args.flags, "id,flag") if args.flags else {}
    given = (args.src_vocab, args.tgt_vocab)  # a side not given is built from --train and saved beside --out
    src_vocab, tgt_vocab = (
        Vocabulary.load(path) if path else build_vocabulary(train_records, side, args.vocab_min_count)
        for path, side in zip(given, ("source", "target"))
    )
    train_batches, skipped_train = make_batches(
        train_records, src_vocab, tgt_vocab, args.tokens_per_batch, seed=args.seed, flags_by_id=flags
    )
    val_batches, _ = make_batches(
        val_records, src_vocab, tgt_vocab, args.tokens_per_batch, seed=args.seed, flags_by_id=flags
    )
    for path, batches in ((args.train, train_batches), (args.val, val_batches)):
        _require(batches, path, f"no sentence fits in --tokens-per-batch {args.tokens_per_batch}")
    video_ids = sorted({r.video_id for r in train_records + val_records})
    features = _load_features_dir(args.features, video_ids)
    cfg = _resolve_model_config(args, src_vocab, tgt_vocab, features)

    inputs = [args.train, args.val] + ([args.flags] if args.flags else []) + [path for path in given if path]
    write_manifest(args.out, args, inputs, resolved=asdict(cfg))
    if skipped_train:
        print(f"skipped {len(skipped_train)} oversized sentences: {skipped_train}", file=sys.stderr)
    params = ModelParameters.build(cfg, seed=args.seed)

    def periodic_save(step, current):
        current.save(Path(f"{args.out}.step{step:06d}"))

    result = train(params, cfg, train_batches, val_batches, features, tc,
                   checkpoint_callback=periodic_save if args.checkpoint_every else None)

    out = Path(args.out)
    result.params.save(out)
    out.with_suffix(out.suffix + ".cfg").write_text(cfg.to_text(), encoding="utf-8")
    for path, vocab, side in zip(given, (src_vocab, tgt_vocab), ("src", "tgt")):
        if not path:
            vocab.save(out.with_suffix(f"{out.suffix}.{side}-vocab.txt"))
    write_jsonl(args.metrics or out.with_suffix(out.suffix + ".metrics.jsonl"), result.metrics)
    line = f"steps={result.steps} best_val_loss={result.best_val_loss:.6f}"
    if result.diverged:
        print(f"diverged {line} reason={result.diverged_reason}")
        return 2
    print(f"ok {line}")
    return 0


def _load_vocab(path, key, size, config_path):
    """The vocabulary at ``path``, which must hold the ``size`` tokens that ``key`` of the model config gives."""
    vocab = Vocabulary.load(path)
    if len(vocab) != size:
        raise ValueError(f"{path}: {len(vocab)} tokens, but {config_path} gives {key} = {size}")
    return vocab


def _load_model(args):
    """Read the corpus and the model, write the manifest, then pad the sources and stack their clips.

    Returns (records, src_vocab, tgt_vocab, cfg, params, src, src_mask, features).
    """
    records, _ = parse_corpus(args.corpus)
    _require(records, args.corpus, "no records to read")
    with _naming(args.model_config):
        cfg = ModelConfig.from_text(args.model_config.read_text(encoding="utf-8"))
    src_vocab = _load_vocab(args.src_vocab, "src_vocab_size", cfg.src_vocab_size, args.model_config)
    tgt_vocab = _load_vocab(args.tgt_vocab, "tgt_vocab_size", cfg.tgt_vocab_size, args.model_config)
    params = ModelParameters.load(args.checkpoint, cfg)
    features = _load_features_dir(args.features, sorted({r.video_id for r in records}),
                                  (cfg.frames_per_clip, cfg.video_feature_dim), args.model_config)
    write_manifest(args.out, args, [args.corpus, args.checkpoint, args.model_config,
                                    args.src_vocab, args.tgt_vocab])
    src, mask = pad_rows([src_vocab.encode(r.source_text) for r in records])
    feats = VideoFeatureBatch.stack([r.video_id for r in records], features)
    return records, src_vocab, tgt_vocab, cfg, params, src, mask, feats


def cmd_decode(args):
    dc = DecodeConfig(**_field_values(args, DecodeConfig))
    _, _, tgt_vocab, cfg, params, src, mask, feats = _load_model(args)
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
    exp = SyntheticExperiment(**_field_values(args, SyntheticExperiment))
    variants = args.variants.split(",") if args.variants else None
    rows, details = run_synthetic_experiment(exp, variants)
    write_manifest(args.out, args, [])
    write_results_table(args.out, rows)
    print("variant,bleu,synthetic_accuracy,central_attention")
    for row in rows:
        central = details["central_attention"][row["variant"]]
        print(f"{row['variant']},{row['bleu']:.4f},{row['synthetic_accuracy']:.4f},{central:.4f}")


def cmd_attn_dump(args):
    _, src_vocab, _, cfg, params, src, src_mask, feats = _load_model(args)
    export_attention(params, cfg, src, src_mask, feats, src_vocab, args.out)


def cmd_grad_check(args):
    if args.repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {args.repeats}")
    worst = 0.0
    for offset in range(args.repeats):
        err = gradient_check_full_loss(args.seed + offset, d_model=args.d_model, frames=args.frames)
        print(f"seed {args.seed + offset}: max relative error {err:.3e}")
        worst = np.maximum(worst, err)  # a NaN error stays the worst; max() would drop it
    print(f"max relative error {worst:.3e}")
    return 0 if worst < 1e-3 else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_dataset_flags(parser):
    """The synthetic-dataset flags ``synth`` and ``ablate`` share."""
    _add_field_flags(parser, SyntheticExperiment, ("n_train", "n_val", "n_test", "frames", "feature_dim"))
    parser.add_argument("--bump", choices=("central", "edge"), default=SyntheticExperiment.bump)


def _add_model_inputs(parser):
    """The trained-model inputs and the output path ``decode`` and ``attn-dump`` share."""
    parser.add_argument("--corpus", type=Path, required=True)
    parser.add_argument("--features", type=Path, required=True)
    parser.add_argument("--checkpoint", type=Path, required=True)
    parser.add_argument("--model-config", dest="model_config", type=Path, required=True)
    parser.add_argument("--src-vocab", dest="src_vocab", type=Path, required=True)
    parser.add_argument("--tgt-vocab", dest="tgt_vocab", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)


def _common(parser):
    parser.add_argument("--seed", type=int, default=0, help="seed for all randomness (default 0)")


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
    _add_field_flags(p, AmbiguitySelectionConfig, ("target_threshold",))
    p.add_argument("--schedule", default=",".join(map(str, AmbiguitySelectionConfig.parallel_schedule)))

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
    _add_dataset_flags(p)
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
    _add_field_flags(p, TrainConfig, ("tokens_per_batch", "max_steps", "max_epochs", "patience"))
    _add_field_flags(p, Schedule, ("warmup_steps", "lr_start", "lr_peak"))
    p.add_argument("--clip-norm", dest="clip_norm", type=float, default=TrainConfig.clip_norm)
    p.add_argument("--no-clip", dest="no_clip", action="store_true")
    p.add_argument("--checkpoint-every", dest="checkpoint_every", type=int, default=TrainConfig.checkpoint_every,
                   help="also save the live parameters every N steps")
    p.add_argument("--model-config", type=Path, help="key = value config file")
    _add_field_flags(p, ModelConfig, _MODEL_OVERRIDES, override=True)
    _common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("decode", help="beam-decode a corpus")
    _add_model_inputs(p)
    _add_field_flags(p, DecodeConfig, ("beam_size", "max_length", "length_penalty"))
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("bleu", help="corpus BLEU of a hypothesis file against a reference file")
    p.add_argument("--hyp", type=Path, required=True)
    p.add_argument("--ref", type=Path, required=True)
    p.set_defaults(func=cmd_bleu)

    p = sub.add_parser("ablate", help="synthetic-task ablation table")
    p.add_argument("--out", type=Path, required=True)
    _add_dataset_flags(p)
    _add_field_flags(p, SyntheticExperiment, ("max_steps", "patience", "dropout", "lr_peak"))
    p.add_argument("--variants", help="comma-separated subset of variants")
    _common(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("attn-dump", help="export per-token frame attention")
    _add_model_inputs(p)
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
        with _flag_named(args):
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
