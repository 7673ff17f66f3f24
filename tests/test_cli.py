import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from safa import cli
from safa.corpus import load_video_features, save_similarity_matrix, save_video_features


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


def test_ambiguous_with_matrix_scorer(corpus, tmp_path):
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
    metrics = [json.loads(l) for l in (tmp_path / "model.ckpt.metrics.jsonl").read_text().splitlines()]
    assert sum(1 for m in metrics if m["train_loss"] is not None) == 8
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


def test_grad_check_command(capsys):
    assert _run("grad-check", "--seed", 1, "--d-model", 8, "--frames", 4) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out
