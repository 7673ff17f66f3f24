import argparse
import hashlib
import inspect
import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from safa import cli
from safa.corpus import AmbiguitySelectionConfig, load_video_features, save_video_features
from safa.evaluation import DecodeConfig
from safa.model import ModelConfig, ModelParameters
from safa.tensor import load_checkpoint, save_checkpoint
from safa.training import BLAS_THREAD_ENV, Schedule, TrainConfig, synthetic_splits


CORPUS = """\
{"id": "a1", "source_text": "where to", "target_text": "go now", "start_ms": 12000, "end_ms": 14000, "video_id": "m1"}
{"id": "a2", "source_text": "where to", "target_text": "forward", "start_ms": 20000, "end_ms": 22000, "video_id": "m1"}
{"id": "a3", "source_text": "where to", "target_text": "go now please", "start_ms": 30000, "end_ms": 31000, "video_id": "m1"}
{"id": "a4", "source_text": "hello there", "target_text": "hi", "start_ms": 1000, "end_ms": 2000, "video_id": "m2"}
"""

VOTES = """\
task_id,clip_owner,worker_id,choice
a1,first,w1,first
a1,first,w2,first
a1,first,w3,both
a2,second,w1,second
a2,second,w2,none
a2,second,w3,first
a4,first,w1,first
a4,first,w2,first
a4,first,w3,first
"""


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(CORPUS, encoding="utf-8")
    return path


def _run(*argv):
    return cli.main([str(a) for a in argv])


def test_unknown_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        _run("pipeline", "transets", "--bogus")
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err


def test_missing_input_exits_one(tmp_path, capsys):
    code = _run("pipeline", "transets", "--in", tmp_path / "nope.jsonl", "--out", tmp_path / "o")
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_internal_error_exits_two(monkeypatch, tmp_path, capsys):
    def boom(args):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(cli, "cmd_bleu", boom)
    hyp = tmp_path / "h.txt"
    hyp.write_text("a\n")
    code = _run("bleu", "--hyp", hyp, "--ref", hyp)
    assert code == 2
    assert "internal error" in capsys.readouterr().err


def test_windows_command(corpus, tmp_path):
    out = tmp_path / "windows.jsonl"
    assert _run("pipeline", "windows", "--in", corpus, "--out", out) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert rows[0] == {
        "frame_count": 250, "id": "a1", "video_id": "m1",
        "window_end_ms": 18000, "window_start_ms": 8000,
    }
    assert rows[3]["window_start_ms"] == 0  # shifted at the video start


def test_manifest_sidecar(corpus, tmp_path):
    out = tmp_path / "sets.jsonl"
    assert _run("pipeline", "transets", "--in", corpus, "--out", out, "--seed", 5) == 0
    manifest = json.loads((tmp_path / "sets.jsonl.manifest.json").read_text())
    assert manifest["seed"] == 5
    assert manifest["version"]
    assert manifest["command"][0] == "pipeline"
    digest = hashlib.sha256(corpus.read_bytes()).hexdigest()
    assert manifest["inputs"][str(corpus)] == digest
    assert "timestamp" not in json.dumps(manifest)


def test_command_idempotent_and_input_untouched(corpus, tmp_path):
    before = corpus.read_bytes()
    out = tmp_path / "sets.jsonl"
    _run("pipeline", "transets", "--in", corpus, "--out", out)
    first = out.read_bytes()
    first_manifest = (tmp_path / "sets.jsonl.manifest.json").read_bytes()
    _run("pipeline", "transets", "--in", corpus, "--out", out)
    assert out.read_bytes() == first
    assert (tmp_path / "sets.jsonl.manifest.json").read_bytes() == first_manifest
    assert corpus.read_bytes() == before


def test_transets_and_flags(corpus, tmp_path):
    sets_out = tmp_path / "sets.jsonl"
    _run("pipeline", "transets", "--in", corpus, "--out", sets_out)
    sets = [json.loads(line) for line in sets_out.read_text().splitlines()]
    assert len(sets) == 1
    assert sets[0]["source_text"] == "where to"
    assert sets[0]["target_texts"] == ["forward", "go now", "go now please"]

    flags_out = tmp_path / "flags.csv"
    _run("pipeline", "flags", "--in", corpus, "--out", flags_out)
    assert flags_out.read_text().splitlines() == [
        "id,flag", "a1,true", "a2,true", "a3,true", "a4,false",
    ]


def test_ambiguous_with_matrix_scorer(corpus, tmp_path, save_similarity_matrix):
    n = 4
    cross = np.zeros((n, n))
    cross[:, 0] = 0.9   # target of a1 ("go now") is strongly parallel
    cross[:, 1] = 0.85  # target of a2 ("forward")
    cross[:, 2] = 0.4   # target of a3 drops out at high thresholds
    target = np.ones((n, n))
    target[0, 1] = target[1, 0] = 0.1  # "go now" vs "forward" very different
    cross_path = tmp_path / "cross.sim"
    target_path = tmp_path / "target.sim"
    save_similarity_matrix(cross_path, cross)
    save_similarity_matrix(target_path, target)

    out = tmp_path / "ambiguous.jsonl"
    code = _run(
        "pipeline", "ambiguous", "--in", corpus, "--out", out,
        "--scorer", "matrix", "--cross-matrix", cross_path, "--target-matrix", target_path,
    )
    assert code == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 1
    assert {rows[0]["first_target"], rows[0]["second_target"]} == {"go now", "forward"}
    assert rows[0]["parallel_threshold"] == 0.8
    assert rows[0]["pair_similarity"] == 0.1


def test_votes_alpha_splits(corpus, tmp_path, capsys):
    votes = tmp_path / "votes.csv"
    votes.write_text(VOTES, encoding="utf-8")
    decisions = tmp_path / "decisions.csv"
    assert _run("pipeline", "votes", "--in", votes, "--out", decisions) == 0
    assert decisions.read_text().splitlines() == [
        "task_id,helpful", "a1,true", "a2,false", "a4,true",
    ]

    assert _run("pipeline", "alpha", "--in", votes) == 0
    printed = capsys.readouterr().out.strip()
    float(printed)  # a parseable number

    splits = tmp_path / "splits.csv"
    assert _run("pipeline", "splits", "--in", corpus, "--out", splits,
                "--decisions", decisions, "--seed", 1) == 0
    rows = dict(line.split(",") for line in splits.read_text().splitlines()[1:])
    assert rows["a2"] == "train" and rows["a3"] == "train"
    assert sorted((rows["a1"], rows["a4"])) == ["test", "validation"]


def test_alpha_out_holds_the_printed_value_and_digests_the_votes(tmp_path, capsys):
    votes = tmp_path / "votes.csv"
    votes.write_text(VOTES, encoding="utf-8")
    out = tmp_path / "alpha.txt"
    assert _run("pipeline", "alpha", "--in", votes, "--out", out) == 0
    assert out.read_text(encoding="utf-8") == capsys.readouterr().out
    manifest = json.loads((tmp_path / "alpha.txt.manifest.json").read_text())
    assert manifest["inputs"] == {str(votes): hashlib.sha256(votes.read_bytes()).hexdigest()}


def test_malformed_votes_and_similarity_header_name_the_file(corpus, tmp_path, capsys):
    votes = tmp_path / "votes.csv"
    votes.write_text(VOTES.replace("a2,second,w2,none", "a2,second,w2,nope"), encoding="utf-8")
    assert _run("pipeline", "votes", "--in", votes, "--out", tmp_path / "decisions.csv") == 1
    assert f"error: {votes}:6: task a2: choice" in capsys.readouterr().err

    matrix = tmp_path / "cross.sim"
    matrix.write_text("SIM v1 two\n", encoding="utf-8")
    assert _run("pipeline", "ambiguous", "--in", corpus, "--out", tmp_path / "ambiguous.jsonl",
                "--scorer", "matrix", "--cross-matrix", matrix, "--target-matrix", matrix) == 1
    assert f"error: {matrix}:1: expected header" in capsys.readouterr().err


@pytest.mark.parametrize("stamp", ["1e400", "Infinity", "-Infinity", "[" * 100_000 + "]" * 100_000],
                         ids=["1e400", "Infinity", "-Infinity", "nested-100000-deep"])
def test_overflowing_timestamp_is_a_malformed_line(corpus, tmp_path, capsys, stamp):
    lines = CORPUS.splitlines()
    lines[1] = lines[1].replace('"start_ms": 20000', f'"start_ms": {stamp}')
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "windows.jsonl"
    assert _run("pipeline", "windows", "--in", corpus, "--out", out) == 1
    assert f"error: {corpus}:2: " in capsys.readouterr().err
    assert _run("pipeline", "windows", "--in", corpus, "--out", out, "--lenient") == 0
    assert [json.loads(line)["id"] for line in out.read_text().splitlines()] == ["a1", "a3", "a4"]


_TRAIN_ON_CORPUS = ["train", "--train", "CORPUS", "--val", "CORPUS", "--features", "TMP"]


@pytest.mark.parametrize("argv, text", [
    (["pipeline", "windows", "--in", "BAD"], CORPUS),
    (["pipeline", "votes", "--in", "BAD"], VOTES),
    (["pipeline", "ambiguous", "--in", "CORPUS", "--scorer", "matrix", "--cross-matrix", "BAD",
      "--target-matrix", "BAD"], "SIM v1 4\n" + "1 " * 16),
    (["pipeline", "splits", "--in", "CORPUS", "--decisions", "BAD"], "task_id,helpful\na1,true\n"),
    (_TRAIN_ON_CORPUS + ["--flags", "BAD"], "id,flag\na1,true\n"),
    (_TRAIN_ON_CORPUS + ["--src-vocab", "BAD", "--tgt-vocab", "BAD"], "<pad>\n<unk>\n<bos>\n<eos>\n"),
    (["bleu", "--hyp", "BAD", "--ref", "BAD"], "go now\nhi\n"),
], ids=["corpus", "votes", "similarity-matrix", "decisions", "train-flags", "vocabulary", "bleu-hypotheses"])
def test_input_that_is_not_utf8_names_the_file(corpus, tmp_path, capsys, argv, text):
    bad = tmp_path / "bad.txt"
    head, _, tail = text.partition("\n")
    bad.write_bytes(f"{head}\n".encode() + b"\xff" + tail.encode())
    paths = {"BAD": bad, "CORPUS": corpus, "TMP": tmp_path}
    out = [] if argv[0] == "bleu" else ["--out", tmp_path / "out"]
    assert _run(*[paths.get(a, a) for a in argv], *out) == 1
    assert f"error: {bad}: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("stage, flags", [
    ("windows", []), ("transets", []), ("ambiguous", []),
    ("splits", ["--decisions", "decisions.csv"]), ("vocab", ["--side", "target"]),
    ("flags", []), ("context", []),
])
def test_lenient_stages_report_skipped_lines(corpus, tmp_path, capsys, stage, flags):
    (tmp_path / "decisions.csv").write_text("task_id,helpful\na1,true\n", encoding="utf-8")
    flags = [tmp_path / f if f.endswith(".csv") else f for f in flags]
    assert _run("pipeline", stage, "--in", corpus, "--out", tmp_path / "clean", *flags) == 0
    lines = CORPUS.splitlines()
    lines[1:1] = ['{"id": "x1"}', "not json"]
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert _run("pipeline", stage, "--in", corpus, "--out", tmp_path / "out", "--lenient", *flags) == 0
    assert capsys.readouterr().err == f"skipped 2 malformed lines of {corpus}: [2, 3]\n"
    assert (tmp_path / "out").read_bytes() == (tmp_path / "clean").read_bytes()


@pytest.mark.parametrize("flags, named", [
    (["--schedule", "0.8,x"], "--schedule"),
    (["--schedule", "0.3,0.8"], "--schedule"),
    (["--target-threshold", "1.5"], "--target-threshold"),
    (["--scorer", "matrix"], "--cross-matrix"),
    (["--scorer", "matrix", "--cross-matrix", "cross.sim"], "--target-matrix"),
], ids=["schedule-not-a-number", "schedule-ascending", "threshold-above-one",
        "no-cross-matrix", "no-target-matrix"])
def test_ambiguous_bad_flags_name_the_flag_and_write_nothing(corpus, tmp_path, capsys, flags, named):
    out = tmp_path / "ambiguous.jsonl"
    assert _run("pipeline", "ambiguous", "--in", corpus, "--out", out, *flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not out.exists() and not (tmp_path / "ambiguous.jsonl.manifest.json").exists()


@pytest.mark.parametrize("flags", [["--cross-matrix"], ["--scorer", "baseline", "--target-matrix"]],
                         ids=["cross-matrix", "target-matrix"])
def test_ambiguous_baseline_rejects_a_matrix_it_would_not_read(corpus, tmp_path, capsys, flags):
    out = tmp_path / "ambiguous.jsonl"
    assert _run("pipeline", "ambiguous", "--in", corpus, "--out", out, *flags, corpus) == 1
    assert capsys.readouterr().err.startswith(f"error: {flags[-1]}: ")
    assert not out.exists() and not (tmp_path / "ambiguous.jsonl.manifest.json").exists()


@pytest.mark.parametrize("stage, flags, named", [
    ("windows", ["--duration-ms", "5000"], "--duration-ms"),
    ("windows", ["--duration-ms", "-5"], "--duration-ms"),
    ("splits", ["--decisions", "decisions.csv", "--eval-cap", "-1"], "--eval-cap"),
], ids=["duration-below-the-window", "duration-negative", "eval-cap-negative"])
def test_stage_bad_numbers_name_the_flag_before_the_manifest(corpus, tmp_path, capsys, stage, flags, named):
    (tmp_path / "decisions.csv").write_text("task_id,helpful\na1,true\n", encoding="utf-8")
    flags = [tmp_path / f if f.endswith(".csv") else f for f in flags]
    out = tmp_path / "out"
    assert _run("pipeline", stage, "--in", corpus, "--out", out, *flags) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}: "), err
    assert not out.exists() and not (tmp_path / "out.manifest.json").exists()


@pytest.mark.parametrize("row", ["a1,True", "a2,yes", "a3"])
def test_decisions_with_a_bad_row_name_the_line(corpus, tmp_path, capsys, row):
    decisions = tmp_path / "decisions.csv"
    decisions.write_text(f"task_id,helpful\na4,true\n{row}\n", encoding="utf-8")
    assert _run("pipeline", "splits", "--in", corpus, "--out", tmp_path / "splits.csv",
                "--decisions", decisions, "--seed", 1) == 1
    assert f"{decisions}:3" in capsys.readouterr().err


def test_vocab_and_context(corpus, tmp_path):
    vocab_out = tmp_path / "vocab.txt"
    assert _run("pipeline", "vocab", "--in", corpus, "--out", vocab_out,
                "--side", "source", "--min-count", 2) == 0
    assert vocab_out.read_text().splitlines() == ["<pad>", "<unk>", "<bos>", "<eos>", "to", "where"]

    context_out = tmp_path / "context.jsonl"
    assert _run("pipeline", "context", "--in", corpus, "--out", context_out) == 0
    rows = [json.loads(line) for line in context_out.read_text().splitlines()]
    assert rows[0]["source_text"] == "where to <sep> where to <sep> where to"
    assert rows[3]["source_text"] == "hello there"


def test_bleu_identity_prints_100(tmp_path, capsys):
    hyp = tmp_path / "h.txt"
    hyp.write_text("a b c d\ne f g h\n", encoding="utf-8")
    assert _run("bleu", "--hyp", hyp, "--ref", hyp) == 0
    assert capsys.readouterr().out.strip() == "100.00"


def test_synth_train_decode_attn_dump(tmp_path, capsys):
    synth_dir = tmp_path / "synth"
    assert _run("synth", "--out-dir", synth_dir, "--n-train", 16, "--n-val", 4,
                "--n-test", 4, "--frames", 6, "--feature-dim", 4, "--seed", 2) == 0
    assert (synth_dir / "train.jsonl").exists()
    assert (synth_dir / "dataset.manifest.json").exists()
    feats = load_video_features(synth_dir / "features" / "synth-00000.evaf")
    assert feats.shape == (6, 4)

    ckpt = tmp_path / "model.ckpt"
    code = _run(
        "train", "--train", synth_dir / "train.jsonl", "--val", synth_dir / "validation.jsonl",
        "--features", synth_dir / "features", "--flags", synth_dir / "flags.csv",
        "--out", ckpt, "--vocab-min-count", 1, "--tokens-per-batch", 128,
        "--max-steps", 8, "--warmup-steps", 4, "--lr-peak", "1e-3",
        "--encoder-layers", 1, "--decoder-layers", 1, "--d-model", 8,
        "--d-ffn", 16, "--heads", 2, "--dropout", 0.1, "--seed", 3,
    )
    assert code == 0
    assert ckpt.exists() and (tmp_path / "model.ckpt.cfg").exists()
    lines = (tmp_path / "model.ckpt.metrics.jsonl").read_text().splitlines()
    metrics = [json.loads(line) for line in lines]
    assert sum(1 for m in metrics if m["train_loss"] is not None) == 8
    assert lines == [json.dumps(row, sort_keys=True) for row in metrics]
    capsys.readouterr()

    hyps = tmp_path / "hyps.txt"
    common = [
        "--features", synth_dir / "features", "--checkpoint", ckpt,
        "--model-config", tmp_path / "model.ckpt.cfg",
        "--src-vocab", tmp_path / "model.ckpt.src-vocab.txt",
        "--tgt-vocab", tmp_path / "model.ckpt.tgt-vocab.txt",
    ]
    assert _run("decode", "--corpus", synth_dir / "test.jsonl", *common,
                "--out", hyps, "--beam", 1, "--max-length", 5) == 0
    assert len(hyps.read_text().splitlines()) == 4

    dump = tmp_path / "attn.jsonl"
    assert _run("attn-dump", "--corpus", synth_dir / "test.jsonl", *common, "--out", dump) == 0
    rows = [json.loads(line) for line in dump.read_text().splitlines()]
    assert len(rows) == 4
    for row in rows:
        assert row["frames"] == 6
        for weights in row["weights"]:
            assert abs(sum(weights) - 1.0) < 1e-6

    # a checkpoint cut inside its header is an input error (exit 1) naming the file
    capsys.readouterr()
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(ckpt.read_bytes()[:9])
    common[common.index(ckpt)] = cut
    assert _run("decode", "--corpus", synth_dir / "test.jsonl", *common,
                "--out", tmp_path / "cut.txt") == 1
    assert str(cut) in capsys.readouterr().err


def _train_tiny_model(tmp_path):
    """Synthesize 6-frame, 4-dim clips and train one step; returns (synth dir, decode args)."""
    synth_dir = tmp_path / "synth"
    assert _run("synth", "--out-dir", synth_dir, "--n-train", 8, "--n-val", 4,
                "--n-test", 4, "--frames", 6, "--feature-dim", 4, "--seed", 2) == 0
    ckpt = tmp_path / "model.ckpt"
    assert _run(
        "train", "--train", synth_dir / "train.jsonl", "--val", synth_dir / "validation.jsonl",
        "--features", synth_dir / "features", "--out", ckpt, "--vocab-min-count", 1,
        "--max-steps", 1, "--encoder-layers", 1, "--decoder-layers", 1, "--d-model", 8,
        "--d-ffn", 16, "--heads", 2, "--seed", 3,
    ) == 0
    decode_args = [
        "decode", "--corpus", synth_dir / "test.jsonl", "--features", synth_dir / "features",
        "--checkpoint", ckpt, "--model-config", tmp_path / "model.ckpt.cfg",
        "--src-vocab", tmp_path / "model.ckpt.src-vocab.txt",
        "--tgt-vocab", tmp_path / "model.ckpt.tgt-vocab.txt", "--out", tmp_path / "hyps.txt",
    ]
    return synth_dir, decode_args


def _train_argv(synth_dir, out, *extra):
    """``safa train`` on a ``safa synth`` directory: a 1+1-layer, d_model 8 model."""
    return ["train", "--train", synth_dir / "train.jsonl", "--val", synth_dir / "validation.jsonl",
            "--features", synth_dir / "features", "--out", out, "--vocab-min-count", 1,
            "--encoder-layers", 1, "--decoder-layers", 1, "--d-model", 8, "--d-ffn", 16, "--heads", 2,
            "--seed", 3, *extra]


def test_train_checkpoint_every_writes_loadable_step_checkpoints(tmp_path):
    synth_dir = tmp_path / "synth"
    assert _run("synth", "--out-dir", synth_dir, "--n-train", 8, "--n-val", 4,
                "--n-test", 4, "--frames", 6, "--feature-dim", 4, "--seed", 2) == 0
    ckpt = tmp_path / "model.ckpt"
    assert _run(*_train_argv(synth_dir, ckpt, "--max-steps", 5, "--checkpoint-every", 2)) == 0
    steps = sorted(p.name for p in tmp_path.glob("model.ckpt.step*"))
    assert steps == ["model.ckpt.step000002", "model.ckpt.step000004"]
    cfg = ModelConfig.from_text((tmp_path / "model.ckpt.cfg").read_text(encoding="utf-8"))
    loaded = [ModelParameters.load(tmp_path / name, cfg) for name in steps]
    # the live parameters moved between the two saves
    assert any(not np.array_equal(t.data, loaded[1][name].data) for name, t in loaded[0].items())


def test_train_uses_the_given_vocabularies(tmp_path, capsys):
    synth_dir, _ = _train_tiny_model(tmp_path)
    src_vocab = tmp_path / "model.ckpt.src-vocab.txt"
    tgt_vocab = tmp_path / "given.tgt-vocab.txt"
    built = (tmp_path / "model.ckpt.tgt-vocab.txt").read_text(encoding="utf-8")
    tgt_vocab.write_text(built + "unseen\n", encoding="utf-8")
    out = tmp_path / "given.ckpt"
    capsys.readouterr()
    assert _run(*_train_argv(synth_dir, out, "--max-steps", 1,
                             "--src-vocab", src_vocab, "--tgt-vocab", tgt_vocab)) == 0
    cfg = ModelConfig.from_text((tmp_path / "given.ckpt.cfg").read_text(encoding="utf-8"))
    assert cfg.tgt_vocab_size == len(built.splitlines()) + 1
    assert cfg.src_vocab_size == len(src_vocab.read_text(encoding="utf-8").splitlines())
    assert ModelParameters.load(out, cfg)["target_embedding"].shape == (cfg.tgt_vocab_size, 8)
    # given vocabularies are inputs: digested in the manifest, not written again
    inputs = json.loads((tmp_path / "given.ckpt.manifest.json").read_text())["inputs"]
    assert {str(src_vocab), str(tgt_vocab)} <= set(inputs)
    assert not list(tmp_path.glob("given.ckpt.*-vocab.txt"))


@pytest.mark.parametrize("given, built", [("src", "tgt"), ("tgt", "src")])
def test_train_loads_a_vocabulary_given_alone_and_builds_the_other(tmp_path, given, built):
    synth_dir, _ = _train_tiny_model(tmp_path)
    vocab = tmp_path / f"given.{given}-vocab.txt"
    tokens = (tmp_path / f"model.ckpt.{given}-vocab.txt").read_text(encoding="utf-8")
    vocab.write_text(tokens + "unseen\n", encoding="utf-8")
    out = tmp_path / "given.ckpt"
    assert _run(*_train_argv(synth_dir, out, "--max-steps", 1, f"--{given}-vocab", vocab)) == 0
    cfg = ModelConfig.from_text((tmp_path / "given.ckpt.cfg").read_text(encoding="utf-8"))
    assert getattr(cfg, f"{given}_vocab_size") == len(tokens.splitlines()) + 1
    # the given side is an input, digested and not written again; the other is built and saved
    inputs = json.loads((tmp_path / "given.ckpt.manifest.json").read_text())["inputs"]
    assert inputs[str(vocab)] == hashlib.sha256(vocab.read_bytes()).hexdigest()
    assert len(inputs) == 3  # --train, --val and the given vocabulary
    assert not (tmp_path / f"given.ckpt.{given}-vocab.txt").exists()
    saved = (tmp_path / f"given.ckpt.{built}-vocab.txt").read_bytes()
    assert saved == (tmp_path / f"model.ckpt.{built}-vocab.txt").read_bytes()


def test_decode_mixed_frame_counts_names_the_clip(tmp_path, capsys):
    synth_dir, decode_args = _train_tiny_model(tmp_path)
    test_ids = [json.loads(line)["video_id"] for line in (synth_dir / "test.jsonl").read_text().splitlines()]
    odd = test_ids[-1]
    assert odd != test_ids[0]
    save_video_features(synth_dir / "features" / f"{odd}.evaf", np.zeros((5, 4)))
    capsys.readouterr()
    assert _run(*decode_args) == 1
    err = capsys.readouterr().err
    assert odd in err and "(5, 4)" in err


def test_train_mixed_frame_counts_names_the_file_before_the_manifest(tmp_path, capsys):
    synth_dir = tmp_path / "synth"
    assert _run("synth", "--out-dir", synth_dir, "--n-train", 20, "--n-val", 4,
                "--n-test", 4, "--frames", 6, "--feature-dim", 4, "--seed", 2) == 0
    odd = synth_dir / "features" / "synth-00003.evaf"
    save_video_features(odd, np.zeros((5, 4)))
    capsys.readouterr()
    ckpt = tmp_path / "m.ckpt"
    assert _run("train", "--train", synth_dir / "train.jsonl", "--val", synth_dir / "validation.jsonl",
                "--features", synth_dir / "features", "--out", ckpt, "--vocab-min-count", 1,
                "--max-steps", 1, "--encoder-layers", 1, "--decoder-layers", 1, "--d-model", 8,
                "--d-ffn", 16, "--heads", 2) == 1
    first = synth_dir / "features" / "synth-00000.evaf"
    assert capsys.readouterr().err == f"error: {odd}: (frames, dim) is (5, 4), but {first} has (6, 4)\n"
    assert not (tmp_path / "m.ckpt.manifest.json").exists()


def test_decode_config_with_wrong_frames_per_clip_names_the_config(tmp_path, capsys):
    _, decode_args = _train_tiny_model(tmp_path)
    cfg_path = decode_args[decode_args.index("--model-config") + 1]
    text = cfg_path.read_text(encoding="utf-8")
    assert "frames_per_clip = 6\n" in text
    wrong = tmp_path / "wrong.cfg"
    wrong.write_text(text.replace("frames_per_clip = 6\n", "frames_per_clip = 7\n"), encoding="utf-8")
    decode_args[decode_args.index(cfg_path)] = wrong
    capsys.readouterr()
    assert _run(*decode_args) == 1
    err = capsys.readouterr().err
    assert str(wrong) in err and "(6, 4)" in err


def test_invalid_model_config_exits_one_naming_the_file(tmp_path, capsys):
    synth_dir, decode_args = _train_tiny_model(tmp_path)
    cfg_path = decode_args[decode_args.index("--model-config") + 1]
    text = cfg_path.read_text(encoding="utf-8")
    assert "heads = 2\n" in text and "d_model = 8\n" in text and "gaussian_std = 1.0\n" in text
    bad_texts = {
        "heads0.cfg": text.replace("heads = 2\n", "heads = 0\n"),
        "fractional.cfg": text.replace("d_model = 8\n", "d_model = 8.5\n"),
        "unknown.cfg": text + "bogus = 1\n",
        "std0.cfg": text.replace("gaussian_std = 1.0\n", "gaussian_std = 0\n"),
        "stdnan.cfg": text.replace("gaussian_std = 1.0\n", "gaussian_std = nan\n"),
    }
    train_args = [
        "train", "--train", synth_dir / "train.jsonl", "--val", synth_dir / "validation.jsonl",
        "--features", synth_dir / "features", "--out", tmp_path / "again.ckpt",
        "--vocab-min-count", 1, "--max-steps", 1,
    ]
    for name, bad_text in bad_texts.items():
        bad = tmp_path / name
        bad.write_text(bad_text, encoding="utf-8")
        args = list(decode_args)
        args[args.index(cfg_path)] = bad
        # the decode and train readers of --model-config
        for argv in (args, train_args + ["--model-config", bad]):
            capsys.readouterr()
            assert _run(*argv) == 1, (name, argv[0])
            err = capsys.readouterr().err
            assert err.startswith(f"error: {bad}: "), err
            assert not any((tmp_path / f).exists() for f in ("hyps.txt.manifest.json", "again.ckpt.manifest.json"))


def test_train_model_config_may_set_any_keys_and_flags_win(tmp_path, capsys):
    synth_dir, _ = _train_tiny_model(tmp_path)
    train_args = [
        "train", "--train", synth_dir / "train.jsonl", "--val", synth_dir / "validation.jsonl",
        "--features", synth_dir / "features", "--vocab-min-count", 1, "--max-steps", 1,
        "--encoder-layers", 1, "--decoder-layers", 1, "--d-ffn", 16,
    ]

    def trained_config(text, *flags):
        path = tmp_path / "given.cfg"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "again.ckpt"
        assert _run(*train_args, "--out", out, "--model-config", path, *flags) == 0
        return (tmp_path / "again.ckpt.cfg").read_text(encoding="utf-8")

    # a partial file: its keys over the defaults, the sizes from the data
    written = trained_config("d_model = 16\n")
    assert "d_model = 16\n" in written and "heads = 4\n" in written
    assert "frames_per_clip = 6\n" in written and "video_feature_dim = 4\n" in written
    # a key that is no flag is kept, and a flag beats the file
    written = trained_config("d_model = 16\ngaussian_std = 2.0\nheads = 4\n", "--d-model", 8, "--heads", 2)
    assert "gaussian_std = 2.0\n" in written and "d_model = 8\n" in written and "heads = 2\n" in written

    # a size the data decides must agree with it
    bad = tmp_path / "frames.cfg"
    bad.write_text("d_model = 16\nframes_per_clip = 7\n", encoding="utf-8")
    capsys.readouterr()
    assert _run(*train_args, "--out", tmp_path / "bad.ckpt", "--model-config", bad) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: frames_per_clip is 7, but the data gives 6"), err


@pytest.mark.parametrize("file_text, flags, blamed", [
    ("d_model = 16\n", ["--temperature", "nan"], "--temperature: temperature must be finite, got nan"),
    ("d_model = 16\n", ["--dropout", "0.2", "--heads", "3"], "--heads: d_model 16 not divisible by heads 3"),
    # each flag is valid over the file alone; together they are not
    ("d_model = 16\n", ["--d-model", "12", "--heads", "8"], "--d-model, --heads: d_model 12 not divisible"),
    ("gaussian_std = 0\n", ["--temperature", "2"], "{cfg}: gaussian_std must be positive"),
    (None, ["--temperature", "nan"], "--temperature: temperature must be finite, got nan"),
], ids=["flag", "one-of-two-flags", "flags-together", "file", "flag-without-file"])
def test_train_invalid_model_config_names_the_file_or_flag_at_fault(tmp_path, capsys, file_text, flags, blamed):
    synth_dir = tmp_path / "synth"
    assert _run("synth", "--out-dir", synth_dir, "--n-train", 8, "--n-val", 4,
                "--n-test", 4, "--frames", 6, "--feature-dim", 4, "--seed", 2) == 0
    given = []
    if file_text is not None:
        cfg = tmp_path / "good.cfg"
        cfg.write_text(file_text, encoding="utf-8")
        given = ["--model-config", cfg]
        blamed = blamed.format(cfg=cfg)
    out = tmp_path / "model.ckpt"
    capsys.readouterr()
    code = _run(
        "train", "--train", synth_dir / "train.jsonl", "--val", synth_dir / "validation.jsonl",
        "--features", synth_dir / "features", "--out", out, "--vocab-min-count", 1, "--max-steps", 1,
        *given, *flags,
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {blamed}"), err
    assert not (tmp_path / "model.ckpt.manifest.json").exists()


@pytest.mark.parametrize("shape", [(0, 4), (6, 0)], ids=["no-frames", "no-dim"])
def test_train_zero_sized_features_name_the_file(tmp_path, capsys, shape):
    synth_dir = tmp_path / "synth"
    assert _run("synth", "--out-dir", synth_dir, "--n-train", 8, "--n-val", 4,
                "--n-test", 4, "--frames", 6, "--feature-dim", 4, "--seed", 2) == 0
    records = (synth_dir / "train.jsonl").read_text() + (synth_dir / "validation.jsonl").read_text()
    first = min(json.loads(line)["video_id"] for line in records.splitlines())
    empty = synth_dir / "features" / f"{first}.evaf"
    save_video_features(empty, np.zeros(shape))
    capsys.readouterr()
    code = _run(
        "train", "--train", synth_dir / "train.jsonl", "--val", synth_dir / "validation.jsonl",
        "--features", synth_dir / "features", "--out", tmp_path / "model.ckpt",
        "--vocab-min-count", 1, "--max-steps", 1,
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {empty}: "), err


@pytest.mark.parametrize("case", ["both-empty", "train-empty", "val-empty", "nothing-fits"])
def test_train_without_usable_sentences_names_the_file(tmp_path, capsys, case):
    synth_dir = tmp_path / "synth"
    assert _run("synth", "--out-dir", synth_dir, "--n-train", 8, "--n-val", 4,
                "--n-test", 4, "--frames", 6, "--feature-dim", 4, "--seed", 2) == 0
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    train = empty if case in ("both-empty", "train-empty") else synth_dir / "train.jsonl"
    val = empty if case in ("both-empty", "val-empty") else synth_dir / "validation.jsonl"
    out = tmp_path / "model.ckpt"
    capsys.readouterr()
    code = _run(
        "train", "--train", train, "--val", val, "--features", synth_dir / "features", "--out", out,
        "--vocab-min-count", 1, "--tokens-per-batch", 1 if case == "nothing-fits" else 128,
        "--max-steps", 1, "--encoder-layers", 1, "--decoder-layers", 1, "--d-model", 8,
        "--d-ffn", 16, "--heads", 2,
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {val if case == 'val-empty' else train}: "), err
    assert not out.exists() and not (tmp_path / "model.ckpt.manifest.json").exists()


@pytest.mark.parametrize("flags, named", [
    (["--clip-norm", "-1"], "--clip-norm"), (["--clip-norm", "0"], "--clip-norm"),
    (["--clip-norm", "nan"], "--clip-norm"), (["--clip-norm", "inf"], "--clip-norm"),
    (["--warmup-steps", "0"], "--warmup-steps"), (["--temperature", "nan"], "--temperature"),
    (["--max-epochs", "0"], "--max-epochs"), (["--max-steps", "-4"], "--max-steps"),
    (["--patience", "0"], "--patience"), (["--checkpoint-every", "-1"], "--checkpoint-every"),
    (["--lr-start", "0"], "--lr-start"), (["--lr-peak", "0"], "--lr-peak"),
], ids=["clip-negative", "clip-zero", "clip-nan", "clip-inf", "warmup-zero", "temperature-nan",
        "max-epochs-zero", "max-steps-negative", "patience-zero", "checkpoint-every-negative",
        "lr-start-zero", "lr-peak-zero"])
def test_train_bad_numbers_exit_one_before_the_manifest(tmp_path, capsys, flags, named):
    synth_dir = tmp_path / "synth"
    assert _run("synth", "--out-dir", synth_dir, "--n-train", 8, "--n-val", 4,
                "--n-test", 4, "--frames", 6, "--feature-dim", 4, "--seed", 2) == 0
    out = tmp_path / "model.ckpt"
    capsys.readouterr()
    code = _run(
        "train", "--train", synth_dir / "train.jsonl", "--val", synth_dir / "validation.jsonl",
        "--features", synth_dir / "features", "--out", out, "--vocab-min-count", 1, "--max-steps", 1,
        "--encoder-layers", 1, "--decoder-layers", 1, "--d-model", 8, "--d-ffn", 16, "--heads", 2, *flags,
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}: "), err
    assert not out.exists() and not (tmp_path / "model.ckpt.manifest.json").exists()


def test_decode_bad_search_flags_name_the_flag_before_the_manifest(tmp_path, capsys):
    _, decode_args = _train_tiny_model(tmp_path)
    for flags in (["--beam", "0"], ["--max-length", "0"], ["--length-penalty", "nan"],
                  ["--length-penalty", "inf"]):
        capsys.readouterr()
        assert _run(*decode_args, *flags) == 1, flags
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flags[0]}: "), err
        assert not (tmp_path / "hyps.txt").exists() and not (tmp_path / "hyps.txt.manifest.json").exists()


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_decode_non_finite_checkpoint_names_the_file_and_parameter(tmp_path, capsys, value):
    _, decode_args = _train_tiny_model(tmp_path)
    ckpt = decode_args[decode_args.index("--checkpoint") + 1]
    arrays = load_checkpoint(ckpt)
    arrays["output_projection"][0, 0] = value
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, arrays)
    decode_args[decode_args.index(ckpt)] = bad
    capsys.readouterr()
    assert _run(*decode_args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and "'output_projection'" in err, err


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_decode_non_finite_clip_names_the_file_before_the_manifest(tmp_path, capsys, value):
    synth_dir, decode_args = _train_tiny_model(tmp_path)
    video_id = json.loads((synth_dir / "test.jsonl").read_text().splitlines()[0])["video_id"]
    clip = synth_dir / "features" / f"{video_id}.evaf"
    feats = load_video_features(clip)
    feats[3, 2] = value
    save_video_features(clip, feats)
    capsys.readouterr()
    assert _run(*decode_args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {clip}: ") and "non-finite" in err, err
    assert not (tmp_path / "hyps.txt").exists() and not (tmp_path / "hyps.txt.manifest.json").exists()


@pytest.mark.parametrize("vocab, edit, key", [
    ("--tgt-vocab", lambda lines: lines[:-1], "tgt_vocab_size"),
    ("--src-vocab", lambda lines: lines[:-1], "src_vocab_size"),
    ("--src-vocab", lambda lines: lines + ["extra"], "src_vocab_size"),
], ids=["tgt-short", "src-short", "src-long"])
def test_model_commands_check_the_vocabulary_sizes_before_the_manifest(tmp_path, capsys, vocab, edit, key):
    _, decode_args = _train_tiny_model(tmp_path)
    path = decode_args[decode_args.index(vocab) + 1]
    bad = tmp_path / "bad-vocab.txt"
    bad.write_text("".join(line + "\n" for line in edit(path.read_text(encoding="utf-8").splitlines())),
                   encoding="utf-8")
    for command in ("decode", "attn-dump"):
        argv = [command, *decode_args[1:]]
        argv[argv.index(path)] = bad
        capsys.readouterr()
        assert _run(*argv) == 1, command
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and f"{key} = " in err, err
        assert not (tmp_path / "hyps.txt").exists() and not (tmp_path / "hyps.txt.manifest.json").exists()


def test_decode_vocabulary_with_a_repeated_token_names_the_line(tmp_path, capsys):
    _, decode_args = _train_tiny_model(tmp_path)
    path = decode_args[decode_args.index("--tgt-vocab") + 1]
    lines = path.read_text(encoding="utf-8").splitlines()
    bad = tmp_path / "bad-vocab.txt"
    bad.write_text("".join(line + "\n" for line in lines[:-1] + [lines[4]]), encoding="utf-8")
    decode_args[decode_args.index(path)] = bad
    capsys.readouterr()
    assert _run(*decode_args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:{len(lines)}: token {lines[4]!r} repeats line 5"), err


@pytest.mark.parametrize("command", ["decode", "attn-dump"])
def test_model_commands_with_an_empty_corpus_name_the_file(tmp_path, capsys, command):
    _, decode_args = _train_tiny_model(tmp_path)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    argv = [command, *decode_args[1:]]
    argv[argv.index("--corpus") + 1] = empty
    capsys.readouterr()
    assert _run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {empty}: "), err
    assert not (tmp_path / "hyps.txt.manifest.json").exists()


def test_ablate_checks_variants_before_any_work(tmp_path, monkeypatch, capsys):
    from safa import evaluation, training

    def forbidden(*args, **kwargs):
        raise AssertionError("ablation work started before its variants were checked")

    monkeypatch.setattr(training, "generate_synthetic_dataset", forbidden)
    monkeypatch.setattr(evaluation, "train", forbidden)
    for variants, unknown in (("full,bogus", "'bogus'"), ("full,", "''")):
        capsys.readouterr()
        assert _run("ablate", "--out", tmp_path / "table.csv", "--variants", variants) == 1
        assert f"error: unknown ablation variant {unknown}" in capsys.readouterr().err


_SMALL_DATASET = ["--n-train", "8", "--n-val", "4", "--n-test", "4", "--frames", "6", "--feature-dim", "4"]


@pytest.mark.parametrize("flags, named", [
    (["--patience", "0"], "--patience"), (["--max-steps", "-1"], "--max-steps"),
    (["--dropout", "1.5"], "--dropout"), (["--frames", "0"], "--frames"),
    (["--lr-peak", "0"], "--lr-peak"), (["--feature-dim", "1"], "--feature-dim"),
    (["--n-test", "-4"], "--n-test"),
], ids=["patience-zero", "max-steps-negative", "dropout-above-one", "frames-zero", "lr-peak-zero",
        "feature-dim-one", "n-test-negative"])
def test_ablate_bad_flags_exit_one_before_the_manifest(tmp_path, capsys, flags, named):
    out = tmp_path / "t.csv"
    assert _run("ablate", "--out", out, *_SMALL_DATASET, *flags) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {named}: ") and captured.out == "", captured
    assert not out.exists() and not (tmp_path / "t.csv.manifest.json").exists()


def test_ablate_writes_the_table_it_prints(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert _run("ablate", "--out", out, *_SMALL_DATASET, "--max-steps", "2", "--variants", "full,text_only") == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "variant,bleu,synthetic_accuracy,central_attention"
    table = out.read_text(encoding="utf-8").splitlines()
    assert table[0] == "variant,bleu,synthetic_accuracy"
    assert [row.split(",")[0] for row in table[1:]] == ["full", "text_only"]
    # each printed row is the table's row plus its central attention
    assert [row.rsplit(",", 1)[0] for row in printed[1:]] == table[1:]
    assert all(0.0 <= float(row.rsplit(",", 1)[1]) <= 1.0 for row in printed[1:])
    manifest = json.loads((tmp_path / "t.csv.manifest.json").read_text())
    assert manifest["config"]["variants"] == "full,text_only" and manifest["inputs"] == {}


@pytest.mark.parametrize("flags, named", [
    (["--feature-dim", "1"], "--feature-dim"), (["--frames", "0"], "--frames"),
    (["--n-train", "-2", "--n-val", "6"], "--n-train"), (["--n-val", "-2", "--n-test", "6"], "--n-val"),
    (["--n-test", "-4"], "--n-test"), (["--n-train", "3"], None),
], ids=["feature-dim-one", "frames-zero", "n-train-negative", "n-val-negative", "n-test-negative",
        "odd-total"])
def test_synth_bad_flags_exit_one_before_the_manifest(tmp_path, capsys, flags, named):
    out_dir = tmp_path / "data"
    assert _run("synth", "--out-dir", out_dir, *_SMALL_DATASET, *flags) == 1
    err = capsys.readouterr().err
    # an odd total is the three counts together, so no one flag is at fault
    assert err.startswith(f"error: {named}: " if named else "error: n must be even"), err
    assert not out_dir.exists()


@pytest.mark.filterwarnings("ignore:overflow")
def test_train_divergence_prints_reason(tmp_path, monkeypatch, capsys):
    from safa import training

    real = training.forward_full

    def non_finite_loss(*args, **kwargs):
        output, breakdown = real(*args, **kwargs)
        return output, replace(breakdown, total=float("nan"))

    monkeypatch.setattr(training, "forward_full", non_finite_loss)
    synth_dir = tmp_path / "synth"
    assert _run("synth", "--out-dir", synth_dir, "--n-train", 8, "--n-val", 4,
                "--n-test", 4, "--frames", 6, "--feature-dim", 4, "--seed", 2) == 0
    capsys.readouterr()
    code = _run(
        "train", "--train", synth_dir / "train.jsonl", "--val", synth_dir / "validation.jsonl",
        "--features", synth_dir / "features", "--out", tmp_path / "model.ckpt",
        "--vocab-min-count", 1, "--max-steps", 2, "--encoder-layers", 1, "--decoder-layers", 1,
        "--d-model", 8, "--d-ffn", 16, "--heads", 2, "--seed", 3,
    )
    assert code == 2
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("diverged steps=1 ")
    assert line.endswith("reason=training loss is not finite")
    metrics = (tmp_path / "model.ckpt.metrics.jsonl").read_text()
    assert metrics == ""


def _safa_process(*argv, **kwargs):
    """``python -m safa.cli`` with ``argv`` in a subprocess, importing this checkout's ``safa``.

    Its stdout is block-buffered when it is not a terminal, as a user's is, also
    where this process runs with PYTHONUNBUFFERED set.
    """
    paths = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return subprocess.run([sys.executable, "-m", "safa.cli", *map(str, argv)], env=env, **kwargs)


def test_train_divergence_at_validation_is_reported_as_a_divergence(tmp_path):
    # a subprocess, as a user runs it: in-process, pytest's warning filter would turn numpy's
    # overflow warning into an error of its own
    def safa(*argv):
        return _safa_process(*argv, capture_output=True, text=True, cwd=tmp_path)

    synth_dir = tmp_path / "synth"
    assert safa("synth", "--out-dir", synth_dir, "--n-train", 8, "--n-val", 4, "--n-test", 4,
                "--frames", 6, "--feature-dim", 4, "--seed", 2).returncode == 0
    # the one step is finite; at lr 1e300 its update overflows the validation forward
    ckpt = tmp_path / "model.ckpt"
    run = safa("train", "--train", synth_dir / "train.jsonl", "--val", synth_dir / "validation.jsonl",
               "--features", synth_dir / "features", "--out", ckpt, "--vocab-min-count", 1,
               "--max-steps", 1, "--warmup-steps", 1, "--lr-peak", "1e300", "--encoder-layers", 1,
               "--decoder-layers", 1, "--d-model", 8, "--d-ffn", 16, "--heads", 2, "--seed", 3)
    assert run.returncode == 2, run.stderr
    assert run.stdout == "diverged steps=1 best_val_loss=inf reason=linear: non-finite values in output\n"
    assert "internal error" not in run.stderr
    assert "RuntimeWarning" not in run.stderr, run.stderr
    for suffix in ("", ".cfg", ".src-vocab.txt", ".tgt-vocab.txt"):
        assert (tmp_path / f"model.ckpt{suffix}").exists(), suffix
    rows = [json.loads(line) for line in (tmp_path / "model.ckpt.metrics.jsonl").read_text().splitlines()]
    assert [(row["step"], row["val_loss"]) for row in rows] == [(1, None)]


def test_grad_check_command(capsys):
    assert _run("grad-check", "--seed", 1, "--d-model", 8, "--frames", 4) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out


def test_grad_check_prints_each_seed_once_to_a_file(tmp_path):
    # written to a file, stdout is block-buffered: a forked check that flushed this
    # process's buffer on its way out would print the seeds before it twice
    out = tmp_path / "grad-check.txt"
    with open(out, "wb") as stdout:
        run = _safa_process("grad-check", "--seed", 0, "--repeats", 3, "--d-model", 8, "--frames", 4,
                            stdout=stdout, stderr=subprocess.PIPE, text=True)
    assert run.returncode == 0, run.stderr
    assert out.read_bytes() == (
        b"seed 0: max relative error 5.066e-07\n"
        b"seed 1: max relative error 1.838e-06\n"
        b"seed 2: max relative error 1.640e-06\n"
        b"max relative error 1.838e-06\n"
    )


def test_grad_check_fails_on_a_nan_error(capsys, monkeypatch):
    errors = {3: 1e-6, 4: float("nan"), 5: 2e-6}
    monkeypatch.setattr(cli, "gradient_check_full_loss", lambda seed, **_: errors[seed])
    assert _run("grad-check", "--seed", 3, "--repeats", 3) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "max relative error nan"


@pytest.mark.parametrize("flag, value", [("--repeats", 0), ("--repeats", -2), ("--frames", 0), ("--d-model", 3)],
                         ids=["0", "-2", "frames-zero", "d-model-odd"])
def test_grad_check_without_repeats_exits_one_naming_the_flag(capsys, flag, value):
    assert _run("grad-check", flag, value) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {flag}: ") and captured.out == "", captured


_DECODE_INPUTS = ["--corpus", "c", "--features", "f", "--checkpoint", "k", "--model-config", "m",
                  "--src-vocab", "s", "--tgt-vocab", "t", "--out", "o"]
_MODEL_INPUTS = {"checkpoint": "k", "corpus": "c", "features": "f", "model_config": "m", "out": "o",
                 "src_vocab": "s", "tgt_vocab": "t", "threads": 1}
_DATASET = {"bump": "central", "feature_dim": 16, "frames": 12, "n_test": 200, "n_train": 2000, "n_val": 200,
            "seed": 0, "threads": 1}
# each command's manifest config for its minimal argv; the defaults are the config dataclasses' fields
_MANIFEST_CONFIG = {
    "train": {"ambiguity_weight": 3.0, "checkpoint_every": 0, "clip_norm": 1.0, "command": "train", "d_ffn": None,
              "d_model": 8, "decoder_layers": None, "dropout": 0.25, "encoder_layers": None, "features": "f",
              "flags": None, "frame_loss_weight": None, "heads": 2, "label_smoothing": None, "lr_peak": 0.005,
              "lr_start": 1e-07, "max_epochs": 1000, "max_steps": 0, "metrics": None, "model_config": None,
              "no_clip": False, "out": "o", "patience": 5, "seed": 0, "src_vocab": None, "temperature": None,
              "tgt_vocab": None, "threads": 1, "tokens_per_batch": 16000, "train": "t", "val": "v",
              "vocab_min_count": 3, "warmup_steps": 2000},
    "decode": {**_MODEL_INPUTS, "command": "decode", "beam": 5, "length_penalty": 1.0, "max_length": 64},
    "attn-dump": {**_MODEL_INPUTS, "command": "attn-dump"},
    "synth": {**_DATASET, "command": "synth", "out_dir": "d"},
    "ablate": {**_DATASET, "command": "ablate", "dropout": 0.1, "lr_peak": 0.002, "max_steps": 600, "out": "o",
               "patience": 5, "variants": None},
    "grad-check": {"command": "grad-check", "d_model": 8, "frames": 4, "repeats": 1, "seed": 0, "threads": 1},
    "pipeline ambiguous": {"command": "pipeline", "cross_matrix": None, "input": "c", "lenient": False, "out": "o",
                           "schedule": "0.8,0.7,0.6,0.5,0.4,0.3", "scorer": "baseline", "seed": 0,
                           "stage": "ambiguous", "target_matrix": None, "target_threshold": 0.3, "threads": 1},
}
_REQUIRED_ARGV = {
    "train": ["--train", "t", "--val", "v", "--features", "f", "--out", "o"],
    "decode": _DECODE_INPUTS,
    "attn-dump": _DECODE_INPUTS,
    "synth": ["--out-dir", "d"],
    "ablate": ["--out", "o"],
    "grad-check": [],
    "pipeline ambiguous": ["--in", "c", "--out", "o"],
}
_MINIMAL_ARGV = {**_REQUIRED_ARGV, "train": [*_REQUIRED_ARGV["train"], "--d-model", "8", "--heads", "2",
                                             "--dropout", "0.25", "--ambiguity-weight", "3"]}


def _typed(config):
    return {key: (value, type(value).__name__) for key, value in config.items()}


def _set_blas_threads(monkeypatch, **values):
    """Set exactly the BLAS thread variables given, unsetting the others."""
    for name in BLAS_THREAD_ENV:
        monkeypatch.delenv(name, raising=False)
    for name, value in values.items():
        monkeypatch.setenv(name, value)


@pytest.mark.parametrize("command", sorted(_MANIFEST_CONFIG))
def test_manifest_config_keys_per_command(tmp_path, monkeypatch, command):
    # "threads" is the environment's BLAS setting, not a flag
    _set_blas_threads(monkeypatch, OPENBLAS_NUM_THREADS="1")
    argv = [*command.split(), *_MINIMAL_ARGV[command]]
    args = cli.build_parser().parse_args(argv)
    args.argv = argv
    cli.write_manifest(tmp_path / "out", args, [])
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    # the types too: model overrides keep ModelConfig's field types ("3" is read as 3.0)
    assert _typed(manifest["config"]) == _typed(_MANIFEST_CONFIG[command])
    # a command without randomness takes no --seed, and its manifest names no seed
    assert manifest.get("seed", "none") == _MANIFEST_CONFIG[command].get("seed", "none")


@pytest.mark.parametrize("env, threads", [
    ({}, None),
    ({"OMP_NUM_THREADS": "3"}, 3),
    ({"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "3"}, 2),
    ({"OPENBLAS_NUM_THREADS": "4", "GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "3"}, 4),
    ({"OPENBLAS_NUM_THREADS": "auto"}, "auto"),
], ids=["unset", "omp", "goto-over-omp", "openblas-first", "not-decimal"])
def test_manifest_threads_follow_openblas_order(tmp_path, monkeypatch, env, threads):
    _set_blas_threads(monkeypatch, **env)
    argv = ["grad-check"]
    args = cli.build_parser().parse_args(argv)
    args.argv = argv
    cli.write_manifest(tmp_path / "out", args, [])
    assert json.loads((tmp_path / "out.manifest.json").read_text())["config"]["threads"] == threads


@pytest.mark.parametrize("argv", [["train", "--train", "t", "--val", "v", "--features", "f", "--out", "o"],
                                  ["pipeline", "vocab", "--in", "c", "--out", "o", "--side", "source"]],
                         ids=["train", "pipeline-vocab"])
def test_threads_is_no_flag(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        _run(*argv, "--threads", 2)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "usage" in err and "unrecognized arguments: --threads 2" in err


@pytest.mark.parametrize("argv", [["decode", *_DECODE_INPUTS], ["attn-dump", *_DECODE_INPUTS],
                                  ["bleu", "--hyp", "h", "--ref", "r"]], ids=["decode", "attn-dump", "bleu"])
def test_seed_is_no_flag_where_nothing_is_random(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        _run(*argv, "--seed", 5)
    assert exc.value.code == 1
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


def test_manifest_records_the_blas_threads_a_run_uses(tmp_path, monkeypatch):
    # OpenBLAS reads its thread count when numpy loads, so each run is its own process
    def synth_manifest(run, threads):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        (tmp_path / run).mkdir()
        done = _safa_process("synth", "--out-dir", "d", "--n-train", 6, "--n-val", 2, "--n-test", 2,
                             "--frames", 3, "--feature-dim", 2, cwd=tmp_path / run, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        return (tmp_path / run / "d" / "dataset.manifest.json").read_bytes()

    first, again, other = synth_manifest("a", "1"), synth_manifest("b", "1"), synth_manifest("c", "2")
    assert first == again
    one, two = json.loads(first), json.loads(other)
    assert (one["config"].pop("threads"), two["config"].pop("threads")) == (1, 2)
    assert one == two


with mock.patch.object(cli, "_add_field_flags", wraps=cli._add_field_flags) as _spy:
    cli.build_parser()
# (command, dataclass, field, override) of every flag _add_field_flags adds
_FIELD_FLAGS = [(call.args[0].prog.removeprefix("safa "), call.args[1], name, call.kwargs.get("override", False))
                for call in _spy.call_args_list for name in call.args[2]]


@pytest.mark.parametrize("command, cls, name, override", _FIELD_FLAGS,
                         ids=[f"{command}:{name}" for command, _, name, _ in _FIELD_FLAGS])
def test_field_flag_takes_the_field_default_and_type(command, cls, name, override):
    field = next(f for f in fields(cls) if f.name == name)
    dest = cli._FLAG_DESTS.get(name, name)
    argv = [*command.split(), *_REQUIRED_ARGV[command]]
    unset = getattr(cli.build_parser().parse_args(argv), dest)
    given = getattr(cli.build_parser().parse_args([*argv, cli._flag(name), str(field.default)]), dest)
    assert (unset is None) if override else (unset == field.default and type(unset) is field.type)
    assert given == field.default and type(given) is field.type


_DATASET_FIELDS = list(inspect.signature(synthetic_splits).parameters)
# every config field each command sets from one of its flags
_FLAG_FIELDS = {
    "train": [f.name for f in fields(TrainConfig) if f.name != "schedule"]
    + [f.name for f in fields(Schedule)] + list(cli._MODEL_OVERRIDES),
    "decode": [f.name for f in fields(DecodeConfig)],
    "ambiguous": [f.name for f in fields(AmbiguitySelectionConfig)],
    "synth": _DATASET_FIELDS,
    "ablate": _DATASET_FIELDS + ["frames_per_clip", "max_steps", "patience", "dropout", "lr_peak"],
    "grad-check": ["repeats", "d_model", "frames_per_clip", "seed"],
}


def _option_strings(*words):
    """The option strings of the subcommand ``words`` name, e.g. ``("pipeline", "ambiguous")``."""
    parser = cli.build_parser()
    for word in words:
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[word]
    return {s for a in parser._actions for s in a.option_strings}


@pytest.mark.parametrize("command", sorted(_FLAG_FIELDS))
def test_every_field_a_flag_sets_is_blamed_on_a_real_option(command):
    words = ["pipeline", command] if command == "ambiguous" else [command]
    minimal = _MINIMAL_ARGV[" ".join(words)]
    args = cli.build_parser().parse_args([*words, *minimal])
    options = _option_strings(*words)
    for field in _FLAG_FIELDS[command]:
        with pytest.raises(ValueError) as info, cli._flag_named(args):
            raise ValueError(f"{field} is bad")
        flag, _, message = str(info.value).partition(": ")
        assert flag in options and message == f"{field} is bad", (field, str(info.value))
    for unrelated in ("n must be even", "model.cfg: d_model is bad", "--beam: beam_size is bad"):
        with pytest.raises(ValueError, match=f"^{unrelated}$"), cli._flag_named(args):
            raise ValueError(unrelated)
