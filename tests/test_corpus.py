import itertools
import os
import re
import struct
import threading

import numpy as np
import pytest

from safa.corpus import (
    AmbiguitySelectionConfig,
    ClipWindowError,
    CorpusParseError,
    MatrixScorer,
    ReliabilityError,
    SubtitleRecord,
    Vocabulary,
    VoteAggregationError,
    VoteRecord,
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
    normalize_text,
    parse_corpus,
    parse_vote_file,
    save_video_features,
    select_ambiguous_sets,
    write_corpus,
)


def rec(i, source, target, video="v0", start=10_000, end=12_000):
    return SubtitleRecord(
        id=f"r{i:04d}", source_text=source, target_text=target,
        start_ms=start, end_ms=end, video_id=video,
    )


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_empty_file(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("")
    records, skipped = parse_corpus(path)
    assert records == [] and skipped == []


def test_parse_single_line(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(
        '{"id": "a", "source_text": "x y", "target_text": "u v", '
        '"start_ms": 100, "end_ms": 900, "video_id": "m1"}\n'
    )
    records, _ = parse_corpus(path)
    assert len(records) == 1
    r = records[0]
    assert (r.id, r.source_text, r.target_text) == ("a", "x y", "u v")
    assert (r.start_ms, r.end_ms, r.video_id) == (100, 900, "m1")


def test_parse_missing_field_names_it(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": "a", "source_text": "x", "target_text": "y", "start_ms": 1, "video_id": "m"}\n')
    with pytest.raises(CorpusParseError, match="end_ms"):
        parse_corpus(path)
    records, skipped = parse_corpus(path, lenient=True)
    assert records == [] and skipped == [1]


def test_corpus_round_trip(tmp_path):
    records = [rec(0, "こんにちは 世界", "hello world"), rec(1, "a b", "c d", video="v1")]
    path = tmp_path / "c.jsonl"
    write_corpus(path, records)
    back, _ = parse_corpus(path)
    assert back == records


# ---------------------------------------------------------------------------
# Clip windows
# ---------------------------------------------------------------------------


def test_clip_window_plus_minus_five_seconds():
    w = compute_clip_window(rec(0, "a", "b", start=12_000, end=14_000))
    assert (w.window_start_ms, w.window_end_ms) == (8_000, 18_000)
    assert w.frame_count == 250
    assert w.window_end_ms - w.window_start_ms == 10_000


def test_clip_window_shifts_at_start():
    w = compute_clip_window(rec(0, "a", "b", start=1_000, end=2_000))
    assert (w.window_start_ms, w.window_end_ms) == (0, 10_000)


def test_clip_window_shifts_at_end():
    w = compute_clip_window(rec(0, "a", "b", start=58_000, end=60_000), video_duration_ms=61_000)
    assert (w.window_start_ms, w.window_end_ms) == (51_000, 61_000)


def test_clip_window_short_video_rejected():
    with pytest.raises(ClipWindowError):
        compute_clip_window(rec(0, "a", "b"), video_duration_ms=9_000)


# ---------------------------------------------------------------------------
# Translation sets
# ---------------------------------------------------------------------------


def test_translation_sets_basic():
    records = [rec(0, "s1", "t1"), rec(1, "s1", "t2"), rec(2, "s2", "t3")]
    sets = collect_translation_sets(records)
    assert len(sets) == 1
    assert sets[0].source_text == "s1"
    assert sets[0].target_texts == ["t1", "t2"]
    assert sets[0].member_ids == ["r0000", "r0001"]


def test_translation_sets_single_target_excluded():
    assert collect_translation_sets([rec(0, "s1", "t1"), rec(1, "s1", "t1")]) == []


def test_translation_sets_normalization():
    # NFC vs NFD of the same text, plus surrounding whitespace
    records = [rec(0, "café", "t1"), rec(1, " café ", "t2")]
    sets = collect_translation_sets(records)
    assert len(sets) == 1
    assert sets[0].source_text == normalize_text("café")


def test_translation_sets_match_brute_force_oracle(brute_force_sets):
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 200))
        records = [
            rec(i, f"s{rng.integers(0, 20)}", f"t{rng.integers(0, 40)}")
            for i in range(n)
        ]
        got = {s.source_text: set(s.target_texts) for s in collect_translation_sets(records)}
        assert got == brute_force_sets(records)


def test_removing_a_record_never_adds_a_set():
    for seed in range(30):
        rng = np.random.default_rng(1000 + seed)
        records = [
            rec(i, f"s{rng.integers(0, 6)}", f"t{rng.integers(0, 9)}") for i in range(40)
        ]
        before = {s.source_text for s in collect_translation_sets(records)}
        drop = int(rng.integers(0, len(records)))
        after = {s.source_text for s in collect_translation_sets(records[:drop] + records[drop + 1:])}
        assert after <= before


# ---------------------------------------------------------------------------
# Ambiguous-set selection
# ---------------------------------------------------------------------------


def _const_scorers(cross_map, target_map):
    def cross(source, target):
        return cross_map[target]

    def tsim(a, b):
        return target_map[frozenset((a, b))]

    return cross, tsim


def test_ambiguous_selection_first_level_wins():
    records = [rec(0, "s", "t1"), rec(1, "s", "t2"), rec(2, "s", "t3")]
    sets = collect_translation_sets(records)
    cross, tsim = _const_scorers(
        {"t1": 0.9, "t2": 0.85, "t3": 0.4},
        {
            frozenset(("t1", "t2")): 0.2,
            frozenset(("t1", "t3")): 0.9,
            frozenset(("t2", "t3")): 0.9,
        },
    )
    out = select_ambiguous_sets(sets, records, cross, tsim)
    assert len(out) == 1
    chosen = out[0]
    assert {chosen.first_target, chosen.second_target} == {"t1", "t2"}
    assert chosen.parallel_threshold == 0.8
    assert chosen.pair_similarity == 0.2
    assert {chosen.first_id, chosen.second_id} == {"r0000", "r0001"}


def test_ambiguous_selection_similarity_gate_blocks():
    records = [rec(0, "s", "t1"), rec(1, "s", "t2")]
    sets = collect_translation_sets(records)
    cross, tsim = _const_scorers({"t1": 0.9, "t2": 0.9}, {frozenset(("t1", "t2")): 0.3})
    # pair similarity 0.3 is not strictly below the 0.3 threshold
    assert select_ambiguous_sets(sets, records, cross, tsim) == []


def test_ambiguous_selection_last_level_only():
    records = [rec(0, "s", "t1"), rec(1, "s", "t2")]
    sets = collect_translation_sets(records)
    cross, tsim = _const_scorers({"t1": 0.35, "t2": 0.32}, {frozenset(("t1", "t2")): 0.1})
    out = select_ambiguous_sets(sets, records, cross, tsim)
    assert len(out) == 1
    assert out[0].parallel_threshold == 0.3


def test_ambiguous_selection_nothing_survives():
    records = [rec(0, "s", "t1"), rec(1, "s", "t2")]
    sets = collect_translation_sets(records)
    cross, tsim = _const_scorers({"t1": 0.2, "t2": 0.1}, {frozenset(("t1", "t2")): 0.0})
    assert select_ambiguous_sets(sets, records, cross, tsim) == []


def test_ambiguous_selection_at_most_one_per_set_and_thresholds_hold():
    rng = np.random.default_rng(5)
    for _ in range(20):
        k = int(rng.integers(2, 7))
        targets = [f"t{j}" for j in range(k)]
        records = [rec(j, "s", t) for j, t in enumerate(targets)]
        sets = collect_translation_sets(records)
        cross_map = {t: float(rng.random()) for t in targets}
        target_map = {
            frozenset(pair): float(rng.random())
            for pair in itertools.combinations(targets, 2)
        }
        cross, tsim = _const_scorers(cross_map, target_map)
        cfg = AmbiguitySelectionConfig()
        out = select_ambiguous_sets(sets, records, cross, tsim, cfg)
        assert len(out) <= len(sets)
        for chosen in out:
            assert chosen.pair_similarity < cfg.target_threshold
            assert cross_map[chosen.first_target] > chosen.parallel_threshold
            assert cross_map[chosen.second_target] > chosen.parallel_threshold


def test_ambiguous_selection_scores_each_candidate_and_pair_once_per_set():
    targets = ["t1", "t2", "t3", "t4"]
    records = [rec(j, "s", t) for j, t in enumerate(targets)]
    cross_map = {"t1": 0.95, "t2": 0.75, "t3": 0.55, "t4": 0.35}  # one more kept every level or two
    cross_calls, pair_calls = [], []

    def cross(source, target):
        cross_calls.append(target)
        return cross_map[target]

    def tsim(a, b):
        pair_calls.append(frozenset((a, b)))
        return 0.9  # never under the 0.3 gate, so every level is walked

    assert select_ambiguous_sets(collect_translation_sets(records), records, cross, tsim) == []
    assert sorted(cross_calls) == targets
    assert len(pair_calls) == len(set(pair_calls)) == 6


def test_ambiguous_selection_schedule_validation():
    with pytest.raises(ValueError):
        AmbiguitySelectionConfig(parallel_schedule=(0.3, 0.8))
    with pytest.raises(ValueError):
        AmbiguitySelectionConfig(target_threshold=1.2)


# ---------------------------------------------------------------------------
# Votes and reliability
# ---------------------------------------------------------------------------


def _votes(owner, choices, task="t1"):
    return [VoteRecord(task, owner, f"w{i}", c) for i, c in enumerate(choices)]


def test_vote_rule_paper_example():
    assert aggregate_votes(_votes("first", ["first", "first", "both"])) == {"t1": True}


def test_vote_rule_no_agreement():
    assert aggregate_votes(_votes("first", ["first", "second", "none"])) == {"t1": False}


def test_vote_rule_agreement_on_wrong_subtitle():
    assert aggregate_votes(_votes("first", ["second", "second", "second"])) == {"t1": False}


def test_vote_rule_full_enumeration():
    choices = ("none", "first", "second", "both")
    for owner in ("first", "second"):
        for combo in itertools.product(choices, repeat=3):
            expected = sum(1 for c in combo if c == owner) >= 2
            got = aggregate_votes(_votes(owner, list(combo)))["t1"]
            assert got == expected, (owner, combo)


def test_vote_count_enforced():
    with pytest.raises(VoteAggregationError, match="t1"):
        aggregate_votes(_votes("first", ["first", "first"]))


def test_vote_file_parsing(tmp_path):
    path = tmp_path / "votes.csv"
    path.write_text(
        "task_id,clip_owner,worker_id,choice\n"
        "t1,first,w1,first\nt1,first,w2,both\nt1,first,w3,first\n"
    )
    votes = parse_vote_file(path)
    assert len(votes) == 3
    assert aggregate_votes(votes) == {"t1": True}
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n")
    with pytest.raises(CorpusParseError):
        parse_vote_file(bad)


@pytest.mark.parametrize("row", ["t1,third,w2,first", "t1,first,w2,maybe"])
def test_vote_with_a_bad_owner_or_choice_names_the_line(tmp_path, row):
    path = tmp_path / "votes.csv"
    path.write_text(f"task_id,clip_owner,worker_id,choice\nt1,first,w1,first\n{row}\n")
    with pytest.raises(CorpusParseError, match=re.escape(f"{path}:3: task t1")):
        parse_vote_file(path)


def test_alpha_perfect_agreement_is_exactly_one():
    ratings = {f"u{i}": ["yes", "yes", "yes"] for i in range(10)}
    assert krippendorff_alpha(ratings) == 1.0


def test_alpha_hand_worked_nominal_example():
    # prepared by hand: coincidences o_aa=2, o_ab=o_ba=1, o_bb=4, n=8;
    # D_o = 2/8, D_e = 2*3*5/(8*7) = 15/28; alpha = 1 - (1/4)/(15/28) = 8/15
    ratings = {"u1": ["a", "a"], "u2": ["a", "b"], "u3": ["b", "b"], "u4": ["b", "b"]}
    assert abs(krippendorff_alpha(ratings) - 8.0 / 15.0) < 1e-9


def test_alpha_random_marginals_near_zero():
    rng = np.random.default_rng(77)
    marginals = np.array([0.5, 0.3, 0.2])
    ratings = {
        f"u{i}": list(rng.choice(["x", "y", "z"], size=3, p=marginals))
        for i in range(1000)
    }
    assert abs(krippendorff_alpha(ratings)) < 0.05


def test_alpha_bounds_random():
    rng = np.random.default_rng(9)
    for _ in range(25):
        ratings = {
            f"u{i}": list(rng.choice(["a", "b"], size=int(rng.integers(2, 5))))
            for i in range(int(rng.integers(2, 30)))
        }
        alpha = krippendorff_alpha(ratings)
        assert -1.0 - 1e-9 <= alpha <= 1.0 + 1e-9


def test_alpha_undefined_when_all_units_singly_rated():
    with pytest.raises(ReliabilityError):
        krippendorff_alpha({"u1": ["a"], "u2": ["b"]})


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------


def test_splits_even_pool():
    records = [rec(i, f"s{i}", f"t{i}") for i in range(20)]
    helpful = {r.id: i < 10 for i, r in enumerate(records)}
    assignment = build_splits(records, helpful, seed=3)
    counts = {split: sum(1 for v in assignment.values() if v == split) for split in ("train", "validation", "test")}
    assert counts == {"train": 10, "validation": 5, "test": 5}
    for r in records:
        if assignment[r.id] != "train":
            assert helpful[r.id]


def test_splits_odd_pool_validation_gets_extra():
    records = [rec(i, f"s{i}", f"t{i}") for i in range(11)]
    helpful = {r.id: True for r in records}
    assignment = build_splits(records, helpful, seed=0)
    n_val = sum(1 for v in assignment.values() if v == "validation")
    n_test = sum(1 for v in assignment.values() if v == "test")
    assert (n_val, n_test) == (6, 5)
    assert build_splits(records, helpful, seed=0) == assignment  # deterministic


def test_splits_nothing_helpful():
    records = [rec(i, f"s{i}", f"t{i}") for i in range(5)]
    assignment = build_splits(records, {}, seed=0)
    assert set(assignment.values()) == {"train"}


def test_splits_evaluation_cap():
    records = [rec(i, f"s{i}", f"t{i}") for i in range(30)]
    helpful = {r.id: True for r in records}
    assignment = build_splits(records, helpful, seed=1, evaluation_cap=8)
    eval_ids = [k for k, v in assignment.items() if v != "train"]
    assert len(eval_ids) == 8


def test_every_record_in_exactly_one_split():
    rng = np.random.default_rng(12)
    records = [rec(i, f"s{i}", f"t{i}") for i in range(50)]
    helpful = {r.id: bool(rng.random() > 0.6) for r in records}
    assignment = build_splits(records, helpful, seed=2)
    assert set(assignment) == {r.id for r in records}
    assert all(v in ("train", "validation", "test") for v in assignment.values())


# ---------------------------------------------------------------------------
# Vocabulary
# ---------------------------------------------------------------------------


def test_vocabulary_min_count():
    records = [rec(0, "a a a b b c", "x")]
    vocab = build_vocabulary(records, "source", min_count=3)
    assert vocab.tokens == ["<pad>", "<unk>", "<bos>", "<eos>", "a"]
    assert vocab.encode("a b") == [4, 1]


def test_vocabulary_min_count_one_keeps_all():
    records = [rec(0, "a a a b b c", "x")]
    vocab = build_vocabulary(records, "source", min_count=1)
    assert vocab.tokens[4:] == ["a", "b", "c"]


def test_vocabulary_frequency_then_lexicographic_order():
    records = [rec(0, "m m z z k k k", "x")]
    vocab = build_vocabulary(records, "source", min_count=1)
    assert vocab.tokens[4:] == ["k", "m", "z"]


def test_vocabulary_reserved_ids():
    vocab = Vocabulary()
    assert vocab.index["<pad>"] == 0
    assert vocab.index["<unk>"] == 1
    assert vocab.index["<bos>"] == 2
    assert vocab.index["<eos>"] == 3


def test_vocabulary_save_load(tmp_path):
    vocab = build_vocabulary([rec(0, "a b a", "x y")], "source", min_count=1)
    path = tmp_path / "v.txt"
    vocab.save(path)
    assert Vocabulary.load(path).tokens == vocab.tokens


def test_vocabulary_does_not_count_reserved_tokens_as_words():
    vocab = build_vocabulary([rec(0, "a <unk> b <eos>", "x")], "source", min_count=1)
    assert vocab.tokens == ["<pad>", "<unk>", "<bos>", "<eos>", "a", "b"]
    assert vocab.index["<unk>"] == 1 and vocab.encode("a <unk>") == [4, 1]


def test_vocabulary_load_rejects_a_repeated_token_naming_the_line(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("<pad>\n<unk>\n<bos>\n<eos>\na\n\nb\na\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:8: token 'a' repeats line 5$"):
        Vocabulary.load(path)


# ---------------------------------------------------------------------------
# Flags and context
# ---------------------------------------------------------------------------


def test_flags_basic():
    records = [rec(0, "s", "t1"), rec(1, "s", "t2"), rec(2, "s", "t3"), rec(3, "u", "t4")]
    sets = collect_translation_sets(records)
    flags = flag_ambiguous_samples(records, sets)
    assert flags == {"r0000": True, "r0001": True, "r0002": True, "r0003": False}


def test_flags_match_brute_force_duplicate_detection():
    for seed in range(50):
        rng = np.random.default_rng(2000 + seed)
        records = [
            rec(i, f"s{rng.integers(0, 10)}", f"t{rng.integers(0, 15)}") for i in range(60)
        ]
        flags = flag_ambiguous_samples(records, collect_translation_sets(records))
        for r in records:
            src = normalize_text(r.source_text)
            targets = {
                normalize_text(q.target_text)
                for q in records
                if normalize_text(q.source_text) == src
            }
            assert flags[r.id] == (len(targets) >= 2)


def test_context_middle_subtitle_sees_all_five():
    records = [rec(i, f"w{i}", f"t{i}", video="v") for i in range(5)]
    out = build_context_corpus(records)
    assert out[2].source_text == "w0 <sep> w1 <sep> w2 <sep> w3 <sep> w4"
    assert out[2].target_text == "t2"


def test_context_first_subtitle_truncates():
    records = [rec(i, f"w{i}", f"t{i}", video="v") for i in range(5)]
    out = build_context_corpus(records)
    assert out[0].source_text == "w0 <sep> w1 <sep> w2"
    assert out[4].source_text == "w2 <sep> w3 <sep> w4"


def test_context_single_subtitle_video_unchanged():
    records = [rec(0, "only line", "t", video="v")]
    out = build_context_corpus(records)
    assert out[0].source_text == "only line"


def test_context_preserves_count_and_targets():
    rng = np.random.default_rng(4)
    records = [
        rec(i, f"s{i}", f"t{i}", video=f"v{rng.integers(0, 4)}") for i in range(30)
    ]
    out = build_context_corpus(records)
    assert len(out) == len(records)
    assert [r.target_text for r in out] == [r.target_text for r in records]


# ---------------------------------------------------------------------------
# Similarity
# ---------------------------------------------------------------------------


def test_baseline_similarity_identity_and_disjoint():
    assert baseline_similarity("some words", "some words") == pytest.approx(1.0, abs=1e-12)
    assert baseline_similarity("abc", "xyz") == 0.0


def test_baseline_similarity_hand_computed():
    # padded 3-grams of "abc": {__a, _ab, abc, bc_, c__}; "abd" shares __a, _ab
    # cosine = 2 / (sqrt(5) * sqrt(5)) = 0.4
    assert baseline_similarity("abc", "abd") == pytest.approx(0.4, abs=1e-12)


def test_similarity_matrix_round_trip_and_scorer(tmp_path, save_similarity_matrix):
    records = [rec(0, "s0", "t0"), rec(1, "s1", "t1")]
    matrix = np.array([[1.0, 0.25], [0.5, 0.75]])
    path = tmp_path / "m.sim"
    save_similarity_matrix(path, matrix)
    assert path.read_text().splitlines()[0] == "SIM v1 2"
    loaded = load_similarity_matrix(path)
    np.testing.assert_array_equal(loaded, matrix)

    cross = MatrixScorer(records, loaded, "source", "target")
    assert cross("s0", "t1") == 0.25
    assert cross("s1", "t0") == 0.5
    with pytest.raises(KeyError):
        cross("unknown text", "t0")


@pytest.mark.parametrize("header", ["SIM v1 two", "SIM v1 -2", "SIM v1 2.0", "SIM v2 2", "SIM v1"])
def test_malformed_similarity_header_names_the_file(tmp_path, header):
    path = tmp_path / "bad.sim"
    path.write_text(f"{header}\n1 0\n0 1\n")  # four values, as many as n = 2 or n = -2 asks for
    with pytest.raises(CorpusParseError, match=re.escape(f"{path}:1: expected header 'SIM v1 <n>'")):
        load_similarity_matrix(path)


def test_non_numeric_similarity_value_names_the_file(tmp_path):
    path = tmp_path / "bad.sim"
    path.write_text("SIM v1 2\n1 0.5\nhigh 1\n")
    with pytest.raises(CorpusParseError, match=re.escape(f"{path}: could not convert")):
        load_similarity_matrix(path)


# ---------------------------------------------------------------------------
# Video feature files
# ---------------------------------------------------------------------------


def test_feature_file_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    feats = rng.normal(size=(12, 7)).astype(np.float32)
    path = tmp_path / "clip.evaf"
    save_video_features(path, feats)
    loaded = load_video_features(path)
    assert loaded.dtype == np.float64
    np.testing.assert_array_equal(loaded, feats.astype(np.float64))


def test_feature_file_bad_magic(tmp_path):
    path = tmp_path / "x.evaf"
    path.write_bytes(b"XXXX" + b"\x00" * 8)
    with pytest.raises(CorpusParseError, match="magic"):
        load_video_features(path)


def test_feature_file_truncated_header_names_file(tmp_path):
    path = tmp_path / "short.evaf"
    path.write_bytes(b"EVAF\x01\x00")
    with pytest.raises(CorpusParseError, match="truncated feature header") as exc:
        load_video_features(path)
    assert str(path) in str(exc.value)


def test_feature_file_absurd_dims_names_file(tmp_path):
    # (2**32 - 1)**2 float32 values: the size check must refuse before reading
    path = tmp_path / "huge.evaf"
    path.write_bytes(b"EVAF" + struct.pack("<II", 2**32 - 1, 2**32 - 1) + bytes(100))
    with pytest.raises(CorpusParseError, match="truncated feature payload") as exc:
        load_video_features(path)
    assert str(path) in str(exc.value)


def test_feature_file_trailing_bytes_names_file(tmp_path):
    path = tmp_path / "long.evaf"
    save_video_features(path, np.ones((2, 3)))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CorpusParseError, match="trailing bytes") as exc:
        load_video_features(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_feature_file_with_a_non_finite_value_names_file(tmp_path, value):
    path = tmp_path / "bad.evaf"
    feats = np.ones((4, 3))
    feats[2, 1] = value
    save_video_features(path, feats)
    with pytest.raises(CorpusParseError, match="non-finite value in the 4x3 feature payload") as exc:
        load_video_features(path)
    assert str(path) in str(exc.value)


def test_feature_file_loads_from_pipe(tmp_path):
    path = tmp_path / "v.evaf"
    save_video_features(path, np.arange(6.0).reshape(2, 3))
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),), daemon=True)
    writer.start()
    try:
        np.testing.assert_array_equal(load_video_features(fifo), np.arange(6.0).reshape(2, 3))
    finally:
        writer.join(timeout=10)
