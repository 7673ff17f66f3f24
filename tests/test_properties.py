"""Property tests: checkpoint round trips, corrupted binaries (loaded, and read by
``safa decode``), ambiguous-set selection, translation sets, splits, corpus parsing,
the baseline similarity, the decoding normalizer, greedy search and corpus BLEU.

Examples are derandomized, so every run checks the same inputs.
"""

import itertools
import json
import math
import os
import re
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from safa import cli
from safa import tensor as T
from safa.corpus import (
    BOS_ID,
    EOS_ID,
    AmbiguitySelectionConfig,
    AmbiguousTranslationSet,
    CorpusParseError,
    SubtitleRecord,
    baseline_similarity,
    build_splits,
    collect_translation_sets,
    load_video_features,
    normalize_text,
    parse_corpus,
    save_video_features,
    select_ambiguous_sets,
)
from safa.evaluation import DecodeConfig, _fuse_sources, beam_decode, corpus_bleu, log_normalize
from safa.model import ModelConfig, ModelParameters, VideoFeatureBatch, decode
from safa.tensor import Tensor

# each example rewrites the same file under tmp_path, so sharing it across examples is safe
_SETTINGS = dict(derandomize=True, database=None, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])

_arrays = hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3).flatmap(
    lambda shape: hnp.arrays(np.float64, shape)
)


@settings(max_examples=150, **_SETTINGS)
@given(entries=st.dictionaries(st.text(max_size=8), _arrays, max_size=5))
def test_checkpoint_round_trip_is_bit_exact(tmp_path, entries):
    path = tmp_path / "p.safa"
    T.save_checkpoint(path, entries)
    loaded = T.load_checkpoint(path)
    assert list(loaded) == list(entries)
    for name, value in entries.items():
        assert loaded[name].dtype == np.float64 and loaded[name].shape == value.shape
        assert loaded[name].tobytes() == value.tobytes()  # NaN payloads and signed zeros too


_CFG = ModelConfig(src_vocab_size=7, tgt_vocab_size=9, video_feature_dim=3, encoder_layers=1,
                   decoder_layers=1, d_model=4, d_ffn=8, heads=2, frames_per_clip=5)


def _checkpoint_layout(data):
    """(every byte offset that is not a parameter value, every offset where a float64 value starts).

    Any 8 value bytes are some float64, so corrupting them can only load.
    """
    offsets, values, at = list(range(8)), [], 8
    while at < len(data):
        (name_len,) = struct.unpack_from("<H", data, at)
        rank = data[at + 2 + name_len]
        dims = struct.unpack_from(f"<{rank}Q", data, at + 3 + name_len)
        header = 3 + name_len + 8 * rank
        offsets.extend(range(at, at + header))
        values.extend(range(at + header, at + header + 8 * math.prod(dims), 8))
        at += header + 8 * math.prod(dims)
    return offsets, values


def _corrupt(data, draw, offsets):
    """Overwrite one to three bytes at drawn ``offsets``, then maybe cut the file short."""
    data = bytearray(data)
    for _ in range(draw.draw(st.integers(1, 3))):
        data[draw.draw(st.sampled_from(offsets))] = draw.draw(st.integers(0, 255))
    return bytes(data[:draw.draw(st.none() | st.integers(0, len(data)))])


def _loads_or_names_the_file(path, load, error):
    try:
        load(path)
    except error as exc:
        assert str(path) in str(exc)


@settings(max_examples=300, **_SETTINGS)
@given(draw=st.data())
def test_corrupted_checkpoint_loads_or_names_the_file(tmp_path, draw):
    path = tmp_path / "m.safa"
    ModelParameters.build(_CFG, seed=0).save(path)
    data = path.read_bytes()
    path.write_bytes(_corrupt(data, draw, _checkpoint_layout(data)[0]))
    _loads_or_names_the_file(path, lambda p: ModelParameters.load(p, _CFG), T.CheckpointError)


@settings(max_examples=150, **_SETTINGS)
@given(draw=st.data())
def test_corrupted_feature_file_loads_or_names_the_file(tmp_path, draw):
    path = tmp_path / "clip.evaf"
    save_video_features(path, np.arange(15.0).reshape(5, 3))
    data = path.read_bytes()
    path.write_bytes(_corrupt(data, draw, range(len(data))))
    _loads_or_names_the_file(path, load_video_features, CorpusParseError)


@pytest.fixture(scope="module")
def decode_run(tmp_path_factory):
    """``safa decode`` argv for a one-step model on a synthetic test split, and the decode output path."""
    root = tmp_path_factory.mktemp("decode")
    synth = root / "synth"
    ckpt = root / "model.ckpt"
    for argv in (
        ["synth", "--out-dir", synth, "--n-train", 8, "--n-val", 4, "--n-test", 4, "--frames", 6,
         "--feature-dim", 4, "--seed", 2],
        ["train", "--train", synth / "train.jsonl", "--val", synth / "validation.jsonl", "--features",
         synth / "features", "--out", ckpt, "--vocab-min-count", 1, "--max-steps", 1, "--encoder-layers", 1,
         "--decoder-layers", 1, "--d-model", 8, "--d-ffn", 16, "--heads", 2, "--seed", 3],
    ):
        assert cli.main([str(a) for a in argv]) == 0
    out = root / "hyps.txt"
    argv = ["decode", "--corpus", synth / "test.jsonl", "--features", synth / "features", "--checkpoint", ckpt,
            "--model-config", root / "model.ckpt.cfg", "--src-vocab", root / "model.ckpt.src-vocab.txt",
            "--tgt-vocab", root / "model.ckpt.tgt-vocab.txt", "--out", out]
    return [str(a) for a in argv], out


def _corrupt_once(data, draw, header, values, width):
    """Truncate ``data``, change one of its ``header`` bytes, or set the value at one of ``values`` to NaN or Inf."""
    kind = draw.draw(st.sampled_from(["truncate", "header", "value"]))
    if kind == "truncate":
        return data[:draw.draw(st.integers(0, len(data) - 1))]
    data = bytearray(data)
    if kind == "header":
        at = draw.draw(st.sampled_from(header))
        data[at] = (data[at] + draw.draw(st.integers(1, 255))) % 256
    else:
        at = draw.draw(st.sampled_from(values))
        value = draw.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        data[at:at + width] = struct.pack("<d" if width == 8 else "<f", value)
    return bytes(data)


def _decode_names_the_file(argv, out, path, capsys):
    capsys.readouterr()
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err, err
    assert not out.exists() and not out.with_name(out.name + ".manifest.json").exists()


@settings(max_examples=120, **_SETTINGS)
@given(draw=st.data())
def test_decode_with_a_corrupted_checkpoint_exits_one_naming_it(decode_run, tmp_path, capsys, draw):
    argv, out = decode_run
    data = open(argv[argv.index("--checkpoint") + 1], "rb").read()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(_corrupt_once(data, draw, *_checkpoint_layout(data), 8))
    argv = list(argv)
    argv[argv.index("--checkpoint") + 1] = str(bad)
    _decode_names_the_file(argv, out, bad, capsys)


@settings(max_examples=120, **_SETTINGS)
@given(draw=st.data())
def test_decode_with_a_corrupted_clip_exits_one_naming_it(decode_run, capsys, draw):
    argv, out = decode_run
    corpus = argv[argv.index("--corpus") + 1]
    video_id = json.loads(open(corpus, encoding="utf-8").readline())["video_id"]
    clip = os.path.join(argv[argv.index("--features") + 1], f"{video_id}.evaf")
    with open(clip, "rb") as f:
        data = f.read()
    # 4 magic and 8 header bytes, then float32 values
    try:
        with open(clip, "wb") as f:
            f.write(_corrupt_once(data, draw, range(12), range(12, len(data), 4), 4))
        _decode_names_the_file(argv, out, clip, capsys)
    finally:
        with open(clip, "wb") as f:
            f.write(data)


def _select_per_level(sets, records, cross_sim, target_sim, config):
    """Straight-line selection that rescores every candidate and pair at every level."""
    by_id = {r.id: r for r in records}
    out = []
    for tset in sets:
        rep = {}
        for member_id in tset.member_ids:
            rep.setdefault(normalize_text(by_id[member_id].target_text), member_id)
        for level in config.parallel_schedule:
            kept = [t for t in tset.target_texts if cross_sim(tset.source_text, t) > level]
            best = None
            for i in range(len(kept)):
                for j in range(i + 1, len(kept)):
                    key = (target_sim(kept[i], kept[j]), kept[i], kept[j])
                    if best is None or key < best:
                        best = key
            if best is not None and best[0] < config.target_threshold:
                sim, first, second = best
                out.append(AmbiguousTranslationSet(tset.source_text, first, second, rep[first],
                                                   rep[second], level, sim))
                break
    return out


_TENTHS = st.integers(0, 10).map(lambda k: k / 10)  # coarse, so scores tie with each other and the levels


@settings(max_examples=150, **_SETTINGS)
@given(draw=st.data())
def test_ambiguous_selection_matches_the_per_level_oracle(draw):
    targets = [f"t{j}" for j in range(draw.draw(st.integers(2, 6)))]
    records = []
    for source in ("a", "b", "c"):
        for target in draw.draw(st.lists(st.sampled_from(targets), max_size=8)):
            records.append(SubtitleRecord(f"r{len(records)}", source, target, 0, 1000, "v"))
    cross = {(s, t): draw.draw(_TENTHS) for s in "abc" for t in targets}
    pairs = {frozenset(p): draw.draw(_TENTHS) for p in itertools.combinations(targets, 2)}
    levels = draw.draw(st.lists(_TENTHS, min_size=1, max_size=6, unique=True))
    config = AmbiguitySelectionConfig(draw.draw(_TENTHS), sorted(levels, reverse=True))

    def cross_sim(source, target):
        return cross[source, target]

    def target_sim(a, b):
        return pairs[frozenset((a, b))]

    sets = collect_translation_sets(records)
    assert (select_ambiguous_sets(sets, records, cross_sim, target_sim, config)
            == _select_per_level(sets, records, cross_sim, target_sim, config))


_SOURCES = st.sampled_from(["a", "A", " a ", "b", "c d", "c  d"])  # normalize_text merges some
_TARGETS = st.sampled_from(["x", "X", "y", "z w"])


def _records(pairs, start=0):
    return [SubtitleRecord(f"r{start + i}", s, t, 0, 1000, "v") for i, (s, t) in enumerate(pairs)]


@settings(max_examples=100, **_SETTINGS)
@given(old=st.lists(st.tuples(_SOURCES, _TARGETS), max_size=8),
       new=st.lists(st.tuples(_SOURCES, _TARGETS), max_size=8), draw=st.data())
def test_adding_records_never_removes_a_translation_set(old, new, draw):
    before, added = _records(old), _records(new, start=len(old))
    merged = draw.draw(st.permutations(before + added))
    after = {t.source_text: t for t in collect_translation_sets(merged)}
    for tset in collect_translation_sets(before):
        grown = after[tset.source_text]
        assert set(tset.target_texts) <= set(grown.target_texts)
        assert set(tset.member_ids) <= set(grown.member_ids)


@settings(max_examples=150, **_SETTINGS)
@given(helpful=st.lists(st.none() | st.booleans(), max_size=12), seed=st.integers(0, 2**16),
       cap=st.none() | st.integers(0, 14))
def test_splits_partition_the_records(helpful, seed, cap):
    records = _records([("a", "x")] * len(helpful))
    decisions = {r.id: h for r, h in zip(records, helpful) if h is not None}
    assignment = build_splits(records, decisions, seed=seed, evaluation_cap=cap)
    assert list(assignment) == [r.id for r in records]
    sizes = Counter(assignment.values())
    assert set(sizes) <= {"train", "validation", "test"}
    pool = sum(h is True for h in helpful)
    assert sizes["validation"] + sizes["test"] == (pool if cap is None else min(pool, cap))
    assert sizes["validation"] - sizes["test"] in (0, 1)
    assert all(assignment[r.id] == "train" for r, h in zip(records, helpful) if h is not True)


_RECORD_KEYS = ("id", "source_text", "target_text", "start_ms", "end_ms", "video_id")


def _parse_corpus_per_line(path, lenient=False):
    """Straight-line parser: ``json.loads`` per stripped line, fields by keyword."""
    records, skipped = [], []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                missing = [k for k in _RECORD_KEYS if k not in obj]
                if missing:
                    raise ValueError(f"missing field {missing[0]!r}")
                records.append(SubtitleRecord(
                    id=str(obj["id"]), source_text=str(obj["source_text"]),
                    target_text=str(obj["target_text"]), start_ms=int(obj["start_ms"]),
                    end_ms=int(obj["end_ms"]), video_id=str(obj["video_id"]),
                    split_hint=obj.get("split_hint"),
                ))
            except (ValueError, TypeError) as exc:
                if lenient:
                    skipped.append(lineno)
                else:
                    raise CorpusParseError(f"{path}:{lineno}: {exc}") from None
    return records, skipped


# str.splitlines() splits at each of these; JSON leaves the first three raw inside strings
_LINE_LIKE = "\u2028\u2029\x85\x1c\x0b\x0c"
_texts = st.text(st.characters(exclude_categories=("Cs",)) | st.sampled_from(_LINE_LIKE + " x"),
                 min_size=1, max_size=6)
_odd_stamps = st.sampled_from([-1, 1.5, "7", None, True, 0])


@st.composite
def _corpus_lines(draw):
    start = draw(st.integers(0, 10**6))
    start, end = draw(st.sampled_from([(start, start + draw(st.integers(1, 10**4))),
                                       (draw(_odd_stamps), draw(_odd_stamps))]))
    obj = {"id": draw(_texts | st.integers()), "source_text": draw(_texts),
           "target_text": draw(_texts), "start_ms": start, "end_ms": end,
           "video_id": draw(_texts)}
    if draw(st.booleans()):
        obj["split_hint"] = draw(st.none() | _texts)
    kind = draw(st.sampled_from(["record", "record", "record", "missing", "trailing",
                                 "non-object", "blank", "broken"]))
    if kind == "missing":
        del obj[draw(st.sampled_from(_RECORD_KEYS))]
    if kind == "non-object":
        obj = draw(st.sampled_from([list(_RECORD_KEYS), " ".join(_RECORD_KEYS), 5, None, []]))
    line = json.dumps(obj, ensure_ascii=draw(st.booleans()))
    if kind == "trailing":
        line += draw(st.sampled_from([" x", "{}", " 1", "]", ' "a"']))
    if kind == "blank":
        line = ""
    if kind == "broken":
        line = line[:draw(st.integers(0, len(line) - 1))]
    pad = st.text(st.sampled_from(" \t\u3000" + _LINE_LIKE), max_size=2)
    return draw(pad) + line + draw(pad)


def _parse_outcome(parse, path, lenient):
    try:
        return parse(path, lenient=lenient)
    except CorpusParseError as exc:
        return ("error", re.match(rf"{re.escape(str(path))}:(\d+): ", str(exc)).group(1))


@settings(max_examples=100, **_SETTINGS)
@given(lines=st.lists(_corpus_lines(), max_size=6), ending=st.sampled_from(["\n", "\r\n"]))
def test_parse_corpus_matches_the_per_line_oracle(tmp_path, lines, ending):
    path = tmp_path / "c.jsonl"
    path.write_bytes(ending.join(lines).encode())
    for lenient in (False, True):
        assert (_parse_outcome(parse_corpus, path, lenient)
                == _parse_outcome(_parse_corpus_per_line, path, lenient))


def _string_trigram_similarity(a, b):
    """Cosine of string-keyed 3-gram Counters, normalized with np.sqrt."""
    def grams(text):
        padded = "\ue000" * 2 + text + "\ue000" * 2
        return Counter(padded[i:i + 3] for i in range(len(padded) - 2))

    ca, cb = grams(a), grams(b)
    dot = sum(ca[g] * cb[g] for g in ca.keys() & cb.keys())
    norm = np.sqrt(sum(v * v for v in ca.values())) * np.sqrt(sum(v * v for v in cb.values()))
    return float(dot / norm)


_similarity_texts = st.text(st.characters(exclude_categories=("Cs",)) | st.sampled_from("ab \ue000"),
                            min_size=1, max_size=40)


@settings(max_examples=150, **_SETTINGS)
@given(a=_similarity_texts, b=_similarity_texts)
def test_baseline_similarity_equals_the_string_counter_formula(a, b):
    for x, y in ((a, b), (a, a + b), (b, b)):
        assert baseline_similarity(x, y) == _string_trigram_similarity(x, y)


@settings(max_examples=200, **_SETTINGS)
@given(logits=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=40),
                         elements=st.floats(-700.0, 700.0)))
def test_log_normalize_matches_the_logaddexp_oracle(logits):
    logp = log_normalize(logits.copy())
    oracle = logits - np.logaddexp.reduce(logits, axis=-1)[..., None]
    # the sequential oracle itself errs by some ulps of the row's largest logit
    scale = np.maximum(1.0, np.abs(logits).max(axis=-1, keepdims=True))
    assert np.all(np.abs(logp - oracle) <= 1e-13 * scale)
    assert np.all(np.abs(np.exp(logp).sum(axis=-1) - 1.0) <= 1e-14)


def _greedy_rollout(params, cfg, src, src_mask, features, max_length):
    """Beam 1 computed independently: argmax over full-prefix ``decode`` calls, one sentence at a time."""
    fused, _ = _fuse_sources(src, src_mask, features, params, cfg)
    out = []
    for i in range(src.shape[0]):
        ids = []
        for _ in range(max_length):
            prefix = np.array([[BOS_ID] + ids], dtype=np.int64)
            logits = decode(Tensor(fused.data[i][None]), prefix, np.ones_like(prefix, dtype=bool),
                            src_mask[i][None], params, cfg)
            token = int(np.argmax(logits.data[0, -1]))
            if token == EOS_ID:
                break
            ids.append(token)
        out.append(ids)
    return out


@settings(max_examples=25, **_SETTINGS)
@given(draw=st.data())
def test_beam_one_equals_the_greedy_rollout(draw):
    heads = draw.draw(st.sampled_from([1, 2]))
    cfg = ModelConfig(
        src_vocab_size=draw.draw(st.integers(5, 12)), tgt_vocab_size=draw.draw(st.integers(5, 12)),
        video_feature_dim=draw.draw(st.integers(1, 3)), encoder_layers=draw.draw(st.integers(1, 2)),
        decoder_layers=draw.draw(st.integers(1, 2)), d_model=4 * heads, d_ffn=8, heads=heads,
        dropout=0.0, frames_per_clip=draw.draw(st.integers(1, 4)),
    )
    params = ModelParameters.build(cfg, seed=draw.draw(st.integers(0, 2**16)))
    rng = np.random.default_rng(draw.draw(st.integers(0, 2**16)))
    lengths = rng.integers(1, 6, size=draw.draw(st.integers(1, 5)))
    src_mask = np.arange(lengths.max()) < lengths[:, None]
    src = np.where(src_mask, rng.integers(4, cfg.src_vocab_size, size=src_mask.shape), 0)
    features = VideoFeatureBatch(rng.standard_normal((len(lengths), cfg.frames_per_clip, cfg.video_feature_dim)))
    max_length = draw.draw(st.integers(1, 6))
    hyps = beam_decode(params, cfg, src, src_mask, features, DecodeConfig(beam_size=1, max_length=max_length))
    assert hyps == _greedy_rollout(params, cfg, src, src_mask, features, max_length)


# two words, so n-grams of every order match often enough for a nonzero score
_sentences = st.lists(st.sampled_from("ab"), min_size=1, max_size=8).map(" ".join)


@settings(max_examples=150, **_SETTINGS)
@given(pairs=st.lists(st.tuples(_sentences | st.just(""), _sentences), min_size=1, max_size=8),
       draw=st.data())
def test_corpus_bleu_ignores_the_order_of_the_pairs(pairs, draw):
    order = draw.draw(st.permutations(range(len(pairs))))
    hyps, refs = zip(*pairs)
    assert corpus_bleu([hyps[i] for i in order], [refs[i] for i in order]) == corpus_bleu(hyps, refs)
