import json
import math
import os
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safa import evaluation, model
from safa.corpus import BOS_ID, EOS_ID, SubtitleRecord, build_vocabulary, pad_rows
from safa.evaluation import (
    DECODE_GROUP,
    DecodeConfig,
    _fuse_sources,
    _gradient_check_inputs,
    _ReadRecorder,
    _top_k,
    beam_decode,
    corpus_bleu,
    export_attention,
    gradient_check_full_loss,
    hypothesis_score,
    log_normalize,
    variant_config,
    write_results_table,
)
from safa.model import (
    ModelConfig,
    ModelParameters,
    TextBatch,
    VideoFeatureBatch,
    decode,
    forward_full,
    fuse_sources,
    parameter_shapes,
)
from safa.tensor import NumericError, Tensor, check_gradients
from safa.training import Schedule, TrainConfig, make_batches, train


def _read_attention_dump(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f]


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------


def test_bleu_identity_is_100():
    sentences = ["the cat sat on the mat", "a b c d e"]
    assert corpus_bleu(sentences, sentences) == pytest.approx(100.0, abs=1e-9)


def test_bleu_identity_short_sentences():
    # sentences below length 4 leave the higher orders vacuous, not zero
    sentences = ["a b", "c"]
    assert corpus_bleu(sentences, sentences) == pytest.approx(100.0, abs=1e-9)


def test_bleu_empty_hypotheses():
    assert corpus_bleu(["", ""], ["a b", "c d"]) == 0.0
    assert corpus_bleu([], []) == 0.0


def test_bleu_hand_worksheet_zero_precision():
    # p3 has no matches: "the the the", "the the cat" vs "the cat sat"
    assert corpus_bleu(["the the the cat"], ["the cat sat"]) == 0.0


def test_bleu_hand_worksheet_full():
    # clipped precisions 5/6, 3/5, 2/4, 1/3; lengths equal so BP = 1
    expected = 100.0 * (5 / 6 * 3 / 5 * 2 / 4 * 1 / 3) ** 0.25
    got = corpus_bleu(["the cat sat on the mat"], ["the cat sat on a mat"])
    assert got == pytest.approx(expected, abs=1e-6)


def test_bleu_brevity_penalty():
    # hypothesis shorter than reference: all precisions 1, BP = e^(1 - 6/4)
    got = corpus_bleu(["a b c d"], ["a b c d e f"])
    assert got == pytest.approx(100.0 * math.exp(1.0 - 6.0 / 4.0), abs=1e-9)


def test_bleu_permutation_invariant():
    hyps = ["the cat sat on the mat", "dogs bark at the moon", "x y z w"]
    refs = ["the cat sat on a mat", "dogs bark at a moon", "x y z q"]
    base = corpus_bleu(hyps, refs)
    perm = [2, 0, 1]
    assert corpus_bleu([hyps[i] for i in perm], [refs[i] for i in perm]) == pytest.approx(base, abs=1e-12)


def test_bleu_input_errors():
    with pytest.raises(ValueError, match="counts"):
        corpus_bleu(["a"], ["a", "b"])
    with pytest.raises(ValueError, match="reference"):
        corpus_bleu(["a"], [""])


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


def _overfit_model(pairs, seed=0, steps=150, frames=3, feature_dim=2):
    records = [
        SubtitleRecord(
            id=f"p{i}", source_text=s, target_text=t,
            start_ms=1000, end_ms=2000, video_id=f"p{i}",
        )
        for i, (s, t) in enumerate(pairs)
    ]
    features = {
        r.id: np.random.default_rng(i).normal(size=(frames, feature_dim))
        for i, r in enumerate(records)
    }
    src_vocab = build_vocabulary(records, "source", min_count=1)
    tgt_vocab = build_vocabulary(records, "target", min_count=1)
    cfg = ModelConfig(
        src_vocab_size=len(src_vocab), tgt_vocab_size=len(tgt_vocab),
        video_feature_dim=feature_dim, encoder_layers=1, decoder_layers=1,
        d_model=16, d_ffn=32, heads=2, dropout=0.0, label_smoothing=0.0,
        frames_per_clip=frames, frame_loss_weight=0.0, ambiguity_weight=1.0,
    )
    batches, _ = make_batches(records, src_vocab, tgt_vocab, 64, seed=seed)
    tc = TrainConfig(
        max_steps=steps, seed=seed, clip_norm=None,
        schedule=Schedule(warmup_steps=20, lr_start=1e-5, lr_peak=3e-3),
    )
    params = ModelParameters.build(cfg, seed=seed)
    result = train(params, cfg, batches, batches, features, tc)
    return result.params, cfg, records, features, src_vocab, tgt_vocab


def _decode_inputs(records, features, src_vocab):
    src, mask = pad_rows([src_vocab.encode(r.source_text) for r in records])
    feats = VideoFeatureBatch(np.stack([features[r.id] for r in records]))
    return src, mask, feats


def test_decode_config_validation():
    with pytest.raises(ValueError):
        DecodeConfig(beam_size=0)
    with pytest.raises(ValueError):
        DecodeConfig(max_length=0)


def test_beam_one_equals_greedy_rollout():
    params, cfg, records, features, src_vocab, tgt_vocab = _overfit_model(
        [("a b", "x"), ("c d", "y z")], steps=5
    )
    src, mask, feats = _decode_inputs(records, features, src_vocab)
    beam1 = beam_decode(params, cfg, src, mask, feats, DecodeConfig(beam_size=1, max_length=6))

    # independent greedy rollout
    from safa.corpus import BOS_ID, EOS_ID
    from safa.evaluation import _fuse_sources
    from safa.model import decode as model_decode

    fused, _ = _fuse_sources(src, mask, feats, params, cfg)
    for i in range(len(records)):
        ids = []
        for _ in range(6):
            prefix = np.array([[BOS_ID] + ids], dtype=np.int64)
            logits = model_decode(
                __import__("safa.tensor", fromlist=["Tensor"]).Tensor(fused.data[i][None]),
                prefix, np.ones_like(prefix, dtype=bool), mask[i][None], params, cfg,
            )
            token = int(np.argmax(logits.data[0, -1]))
            if token == EOS_ID:
                break
            ids.append(token)
        assert beam1[i] == ids


def test_overfit_model_reproduces_target_and_beam_property():
    params, cfg, records, features, src_vocab, tgt_vocab = _overfit_model(
        [("the small one", "il piccolo"), ("the big one", "il grande")], steps=200
    )
    src, mask, feats = _decode_inputs(records, features, src_vocab)
    hyps1 = beam_decode(params, cfg, src, mask, feats, DecodeConfig(beam_size=1, max_length=8))
    texts = [tgt_vocab.decode(h) for h in hyps1]
    assert texts == [r.target_text for r in records]

    hyps5 = beam_decode(params, cfg, src, mask, feats, DecodeConfig(beam_size=5, max_length=8))
    for i in range(len(records)):
        s1 = hypothesis_score(params, cfg, src[i][None], mask[i][None],
                              VideoFeatureBatch(feats.features[i][None]), hyps1[i])
        s5 = hypothesis_score(params, cfg, src[i][None], mask[i][None],
                              VideoFeatureBatch(feats.features[i][None]), hyps5[i])
        assert s5 >= s1 - 1e-12


def test_beam_decode_deterministic():
    params, cfg, records, features, src_vocab, _ = _overfit_model(
        [("a b", "x y"), ("c d", "z")], steps=10
    )
    src, mask, feats = _decode_inputs(records, features, src_vocab)
    dc = DecodeConfig(beam_size=3, max_length=5)
    assert beam_decode(params, cfg, src, mask, feats, dc) == beam_decode(params, cfg, src, mask, feats, dc)


def _reference_beam_search(params, cfg, src, src_mask, features, dc):
    """Full-prefix beam search, the oracle for ``beam_decode``.

    One sentence at a time, every beam re-decodes its whole prefix at every
    step. Per step each beam offers its top ``beam_size`` tokens (stable
    argsort, ties to the lower id); the offers are stable-sorted by
    cumulative log-probability and taken, eos offers into ``finished``,
    until ``beam_size`` beams live.
    """
    fused, _ = _fuse_sources(src, src_mask, features, params, cfg)
    hypotheses = []
    for i in range(src.shape[0]):
        memory, mask = Tensor(fused.data[i][None]), src_mask[i][None]
        beams = [([], 0.0)]  # (generated ids, cumulative logprob)
        finished = []
        for _step in range(dc.max_length):
            candidates = []
            for ids, logprob in beams:
                prefix = np.array([[BOS_ID] + ids], dtype=np.int64)
                logits = decode(memory, prefix, np.ones_like(prefix, dtype=bool), mask, params, cfg)
                logp = log_normalize(logits.data[0, -1])
                for token in np.argsort(-logp, kind="stable")[: dc.beam_size]:
                    candidates.append((ids + [int(token)], logprob + float(logp[token])))
            candidates.sort(key=lambda c: -c[1])
            beams = []
            for ids, logprob in candidates:
                if ids[-1] == EOS_ID:
                    finished.append((ids[:-1], logprob / len(ids) ** dc.length_penalty))
                else:
                    beams.append((ids, logprob))
                if len(beams) >= dc.beam_size:
                    break
            if not beams:
                break
        for ids, logprob in beams:  # ran out of length without eos
            finished.append((ids, logprob / max(len(ids), 1) ** dc.length_penalty))
        finished.sort(key=lambda c: -c[1])
        hypotheses.append(finished[0][0])
    return hypotheses


def _search_pairs():
    """More pairs than one decode group, sources of 2-6 tokens; pair 3's
    target is one token, every other target five."""
    rng = np.random.default_rng(5)
    pairs = []
    for i in range(DECODE_GROUP + 2):
        words = rng.choice([f"s{j}" for j in range(10)], size=int(rng.integers(1, 6)))
        target = "t1" if i == 3 else " ".join(f"t{j}" for j in rng.integers(0, 8, size=5))
        pairs.append((" ".join(words) + f" x{i}", target))
    return pairs


@pytest.fixture(scope="module")
def half_trained():
    """Briefly trained, so hypotheses end at many different steps."""
    return _overfit_model(_search_pairs(), steps=40)


@pytest.fixture(scope="module")
def trained():
    return _overfit_model(_search_pairs(), steps=300)


@pytest.mark.parametrize("k", [1, 3, 5, 8, 10])
def test_top_k_follows_stable_argsort_with_ties(k):
    # row 0 ties three ways at the top and three ways across its 5th best value,
    # row 1 has no ties, row 2 is one tie; k=8 and k=10 take whole rows
    logp = log_normalize(np.array([
        [0.5, 2.0, 1.0, 2.0, 1.0, 1.0, -3.0, 2.0],
        [-1.0, 3.0, 0.25, 2.0, -2.0, 0.0, 1.0, 0.5],
        [0.0] * 8,
    ]))
    rows, cols = _top_k(logp, k, np.empty_like(logp))
    expected = np.argsort(-logp, axis=1, kind="stable")[:, :k]
    assert rows.tolist() == np.repeat(np.arange(3), expected.shape[1]).tolist()
    assert cols.tolist() == expected.ravel().tolist()


@pytest.mark.parametrize("length_penalty", [0.0, 1.0])
@pytest.mark.parametrize("beam_size", [1, 3, 5])
def test_beam_decode_matches_full_prefix_search(half_trained, beam_size, length_penalty):
    params, cfg, records, features, src_vocab, _ = half_trained
    src, mask, feats = _decode_inputs(records, features, src_vocab)
    assert len(set(mask.sum(axis=1))) > 1  # mixed source lengths, so rows are padded
    dc = DecodeConfig(beam_size=beam_size, max_length=6, length_penalty=length_penalty)
    hyps = beam_decode(params, cfg, src, mask, feats, dc)
    assert hyps == _reference_beam_search(params, cfg, src, mask, feats, dc)
    assert len({len(h) for h in hyps}) > 1  # eos came at different steps


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(draw=st.data())
def test_beam_decode_matches_the_oracle_on_tied_scores(draw):
    cfg = ModelConfig(
        src_vocab_size=8, tgt_vocab_size=draw.draw(st.integers(5, 40)), video_feature_dim=2,
        encoder_layers=1, decoder_layers=1, d_model=4, d_ffn=8, heads=2, dropout=0.0,
        frames_per_clip=2,
    )
    params = ModelParameters.build(cfg, seed=draw.draw(st.integers(0, 2**16)))
    # tokens share rounded output columns, so their log-probabilities tie exactly,
    # and so do the cumulative scores of the beams they start
    out = params["output_projection"].data
    v = cfg.tgt_vocab_size
    out[:] = np.round(out[:, draw.draw(st.lists(st.integers(0, 2), min_size=v, max_size=v))] * 2) / 2
    rng = np.random.default_rng(draw.draw(st.integers(0, 2**16)))
    lengths = rng.integers(1, 5, size=draw.draw(st.integers(1, 4)))
    src_mask = np.arange(lengths.max()) < lengths[:, None]
    src = np.where(src_mask, rng.integers(4, cfg.src_vocab_size, size=src_mask.shape), 0)
    feats = VideoFeatureBatch(rng.standard_normal((len(lengths), 2, 2)))
    dc = DecodeConfig(beam_size=draw.draw(st.integers(2, 5)), max_length=draw.draw(st.integers(1, 5)),
                      length_penalty=draw.draw(st.sampled_from([0.0, 1.0])))
    assert (beam_decode(params, cfg, src, src_mask, feats, dc)
            == _reference_beam_search(params, cfg, src, src_mask, feats, dc))


def test_beam_decode_groups_equal_single_sentences(trained):
    params, cfg, records, features, src_vocab, _ = trained
    src, mask, feats = _decode_inputs(records, features, src_vocab)
    assert len(records) > DECODE_GROUP
    # sentence 3 emits eos at step 1 and leaves its group; the rest run to max_length
    greedy = beam_decode(params, cfg, src, mask, feats, DecodeConfig(beam_size=1, max_length=4))
    assert [len(h) for h in greedy] == [1 if i == 3 else 4 for i in range(len(records))]
    for beam_size in (1, 3):
        dc = DecodeConfig(beam_size=beam_size, max_length=4)
        alone = [
            beam_decode(params, cfg, *_decode_inputs([r], features, src_vocab), dc)[0]
            for r in records
        ]
        assert beam_decode(params, cfg, src, mask, feats, dc) == alone


# ---------------------------------------------------------------------------
# Full-loss gradient check
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradient_check_equals_one_check_of_forward_full(seed):
    cfg, params, batch, feats = _gradient_check_inputs(seed, 8, 4)

    def fn(tensors):
        return forward_full(batch, feats, ModelParameters(tensors), cfg).loss

    oracle = check_gradients(fn, params.tensors)
    assert repr(gradient_check_full_loss(seed, d_model=8, frames=4)) == repr(oracle)


def test_fuse_sources_ignores_every_parameter_it_does_not_read():
    cfg, params, batch, feats = _gradient_check_inputs(7, 8, 4)
    recorder = _ReadRecorder(params.tensors)
    reference = fuse_sources(batch, feats, ModelParameters(recorder), cfg)
    unread = [name for name in params.tensors if name not in recorder.read]
    decoder = [name for name in parameter_shapes(cfg) if name.startswith("decoder.")]
    # the key bias is read by nothing: softmax over the keys is unchanged by it
    assert sorted(unread) == sorted(
        ["target_embedding", "output_projection", "encoder.0.self_attn.bk", *decoder])
    assert sum(params[name].data.size for name in unread) == 1040
    for name in unread:
        flat = params[name].data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + 1.0
            outputs = fuse_sources(batch, feats, params, cfg)
            flat[i] = orig
            for out, ref in zip(outputs, reference):
                assert out.data.tobytes() == ref.data.tobytes(), (name, i)


def test_the_loss_ignores_every_parameter_neither_half_reads():
    cfg, params, batch, feats = _gradient_check_inputs(7, 8, 4)
    recorder = _ReadRecorder(params.tensors)
    reference = forward_full(batch, feats, ModelParameters(recorder), cfg).loss.item()
    unread = [name for name in params.tensors if name not in recorder.read]
    assert sorted(unread) == ["decoder.0.cross_attn.bk", "decoder.0.self_attn.bk", "encoder.0.self_attn.bk"]
    assert sum(params[name].data.size for name in unread) == 24
    for name in unread:
        flat = params[name].data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + 1.0
            loss = forward_full(batch, feats, params, cfg).loss.item()
            flat[i] = orig
            assert loss == reference, (name, i)


def test_gradient_check_fuses_once_for_the_parameters_fusion_does_not_read(monkeypatch, assert_no_child_left,
                                                                           fork_fails):
    # Fusion reads 808 entries: 3 + 2 * 808 full forwards, plus the one recording fusion.
    # The tail reads 1016 of the other 1040: one tail records its reads, then 3 + 2 * 1016
    # tails on the fused sources. Each check's 3 are two determinism calls and one taped
    # call; one check of forward_full makes 3 + 2 * 1848. The tail runs in a forked child,
    # whose calls this process does not see; without fork it runs here.
    calls = {"fuse_sources": 0, "decode": 0}

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(model, "fuse_sources")
    counting(evaluation, "fuse_sources")
    counting(model, "decode")
    forked = gradient_check_full_loss(7, d_model=8, frames=4)
    assert forked < 1e-3
    assert calls == {"fuse_sources": 1620, "decode": 1619}
    assert_no_child_left()
    calls.update(fuse_sources=0, decode=0)
    monkeypatch.setattr(os, "fork", fork_fails)
    assert repr(gradient_check_full_loss(7, d_model=8, frames=4)) == repr(forked)
    assert calls == {"fuse_sources": 1620, "decode": 3655}


def test_gradient_check_without_fork_equals_one_check_of_forward_full(monkeypatch, fork_fails):
    cfg, params, batch, feats = _gradient_check_inputs(0, 8, 4)

    def fn(tensors):
        return forward_full(batch, feats, ModelParameters(tensors), cfg).loss

    oracle = repr(check_gradients(fn, params.tensors))
    monkeypatch.setattr(os, "fork", fork_fails)
    assert repr(gradient_check_full_loss(0, d_model=8, frames=4)) == oracle
    monkeypatch.delattr(os, "fork")
    assert repr(gradient_check_full_loss(0, d_model=8, frames=4)) == oracle


def _constant_loss(*_):
    return SimpleNamespace(loss=Tensor(0.0))


def _raise(error):
    def raising(*_):
        raise error

    return raising


def test_gradient_check_raises_the_forked_tail_error(monkeypatch, assert_no_child_left):
    # the fusion half reads a constant loss, so only the tail can fail
    monkeypatch.setattr(evaluation, "forward_full", _constant_loss)
    monkeypatch.setattr(evaluation, "decode_losses", _raise(NumericError("tail: non-finite values")))
    with pytest.raises(NumericError, match="^tail: non-finite values$"):
        gradient_check_full_loss(0, d_model=8, frames=4)
    assert_no_child_left()


def test_gradient_check_sends_an_unpicklable_tail_error_as_a_runtime_error(monkeypatch, assert_no_child_left):
    class Unpicklable(Exception):
        pass  # defined in a function, so pickle cannot find its class

    monkeypatch.setattr(evaluation, "forward_full", _constant_loss)
    monkeypatch.setattr(evaluation, "decode_losses", _raise(Unpicklable("no way back")))
    with pytest.raises(RuntimeError, match="^Unpicklable: no way back$"):
        gradient_check_full_loss(0, d_model=8, frames=4)
    assert_no_child_left()


@pytest.mark.parametrize("forked", [True, False], ids=["forked", "inline"])
def test_gradient_check_raises_the_fusion_error_first_and_kills_the_tail(monkeypatch, forked, assert_no_child_left,
                                                                         fork_fails):
    # inline, the queued tail is dropped unrun
    if not forked:
        monkeypatch.setattr(os, "fork", fork_fails)
    monkeypatch.setattr(evaluation, "forward_full", _raise(ValueError("fusion failed")))
    monkeypatch.setattr(evaluation, "decode_losses", lambda *_: time.sleep(60))
    start = time.monotonic()
    with pytest.raises(ValueError, match="^fusion failed$"):
        gradient_check_full_loss(0, d_model=8, frames=4)
    assert time.monotonic() - start < 30
    assert_no_child_left()


def test_gradient_check_names_the_status_of_a_tail_that_ends_without_a_result(monkeypatch, assert_no_child_left):
    monkeypatch.setattr(evaluation, "forward_full", _constant_loss)
    monkeypatch.setattr(evaluation, "decode_losses", lambda *_: os._exit(3))
    with pytest.raises(RuntimeError, match=r"without a result \(exit status 3\)"):
        gradient_check_full_loss(0, d_model=8, frames=4)
    assert_no_child_left()


# ---------------------------------------------------------------------------
# Ablation configs
# ---------------------------------------------------------------------------


def test_variant_configs():
    cfg = ModelConfig(src_vocab_size=8, tgt_vocab_size=8, video_feature_dim=4)
    baseline = variant_config(cfg, "baseline")
    assert baseline.frame_loss_weight == 0.0 and baseline.ambiguity_weight == 1.0
    no_frame = variant_config(cfg, "no_frame_loss")
    assert no_frame.frame_loss_weight == 0.0 and no_frame.ambiguity_weight == cfg.ambiguity_weight
    no_ambiguity = variant_config(cfg, "no_ambiguity_weight")
    assert no_ambiguity.ambiguity_weight == 1.0 and no_ambiguity.frame_loss_weight == cfg.frame_loss_weight
    with pytest.raises(ValueError):
        variant_config(cfg, "bogus")


def test_variants_share_initial_parameters():
    cfg = ModelConfig(
        src_vocab_size=8, tgt_vocab_size=8, video_feature_dim=4,
        encoder_layers=1, decoder_layers=1, d_model=8, d_ffn=16,
    )
    a = ModelParameters.build(variant_config(cfg, "full"), seed=3)
    b = ModelParameters.build(variant_config(cfg, "baseline"), seed=3)
    for name, t in a.items():
        np.testing.assert_array_equal(t.data, b[name].data)


def test_write_results_table(tmp_path):
    rows = [
        {"variant": "full", "bleu": 12.34567, "synthetic_accuracy": 0.91},
        {"variant": "baseline", "bleu": 10.0, "synthetic_accuracy": 0.82},
    ]
    path = tmp_path / "results.csv"
    write_results_table(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "variant,bleu,synthetic_accuracy"
    assert lines[1] == "full,12.3457,0.9100"


# ---------------------------------------------------------------------------
# Attention export
# ---------------------------------------------------------------------------


def _export_setup(frames):
    cfg = ModelConfig(
        src_vocab_size=9, tgt_vocab_size=9, video_feature_dim=3,
        encoder_layers=1, decoder_layers=1, d_model=8, d_ffn=16,
        heads=2, dropout=0.0, frames_per_clip=frames,
    )
    params = ModelParameters.build(cfg, seed=6)
    rng = np.random.default_rng(6)
    src = rng.integers(4, 9, size=(2, 4))
    src_mask = np.array([[True, True, True, False], [True, True, True, True]])
    tgt = np.full((2, 3), 2, dtype=np.int64)
    tgt[:, -1] = 3
    batch = TextBatch(
        src=src, src_mask=src_mask, tgt=tgt,
        tgt_mask=np.ones((2, 3), dtype=bool), flags=np.zeros(2, dtype=bool),
    )
    feats = VideoFeatureBatch(rng.normal(size=(2, frames, 3)))
    return cfg, params, batch, feats


def test_export_attention_rows_and_bit_equality(tmp_path):
    cfg, params, batch, feats = _export_setup(frames=5)
    src_vocab = type("V", (), {"tokens": [f"語{i}" for i in range(9)]})()
    path = tmp_path / "attn.jsonl"
    export_attention(params, cfg, batch.src, batch.src_mask, feats, src_vocab, path)
    dump = _read_attention_dump(path)
    assert len(dump) == 2
    # written like every other JSONL output: keys sorted, tokens as UTF-8 text
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == [json.dumps(record, sort_keys=True, ensure_ascii=False) for record in dump]
    assert dump[0]["source_tokens"] == [src_vocab.tokens[t] for t in batch.src[0][:3]]
    assert len(dump[0]["weights"]) == 3  # padding token dropped
    assert len(dump[1]["weights"]) == 4
    _, frame_attention, _ = fuse_sources(batch, feats, params, cfg)
    for i, record in enumerate(dump):
        rows = np.array(record["weights"])
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-6)
        keep = batch.src_mask[i]
        assert rows.tobytes() == frame_attention.data[i][keep].tobytes()
        np.testing.assert_allclose(record["frame_aggregate"], rows.mean(axis=0), atol=0)


def test_trained_attention_peaks_at_frame_nearest_gaussian_mean(tmp_path):
    # strong frame loss and a cold temperature make the target near one-hot
    # at the frame closest to the Gaussian mean (index 3 of 6 here); frames
    # carry an identity code so content attention can localize them at all
    from safa.corpus import build_vocabulary
    from safa.training import Schedule, TrainConfig, generate_synthetic_dataset, make_batches, train

    frames = 6
    records, _, flags = generate_synthetic_dataset(40, frames, 4, seed=2)
    rng = np.random.default_rng(0)
    dv = frames + 2
    features = {}
    for r in records:
        feat = np.zeros((frames, dv))
        feat[np.arange(frames), np.arange(frames)] = 1.0
        feat += 0.05 * rng.standard_normal((frames, dv))
        features[r.id] = feat
    src_vocab = build_vocabulary(records, "source", min_count=1)
    tgt_vocab = build_vocabulary(records, "target", min_count=1)
    cfg = ModelConfig(
        src_vocab_size=len(src_vocab), tgt_vocab_size=len(tgt_vocab),
        video_feature_dim=dv, encoder_layers=1, decoder_layers=1,
        d_model=16, d_ffn=32, heads=2, dropout=0.0, frames_per_clip=frames,
        frame_loss_weight=20.0, temperature=0.05,
    )
    batches, _ = make_batches(records, src_vocab, tgt_vocab, 256, seed=2, flags_by_id=flags)
    tc = TrainConfig(max_steps=300, seed=2, patience=10_000,
                     schedule=Schedule(warmup_steps=20, lr_start=1e-5, lr_peak=3e-3))
    result = train(ModelParameters.build(cfg, seed=2), cfg, batches, batches[:1], features, tc)

    batch = batches[0]
    feats = VideoFeatureBatch(np.stack([features[v] for v in batch.video_ids]))
    path = tmp_path / "attn.jsonl"
    export_attention(result.params, cfg, batch.text.src, batch.text.src_mask, feats, src_vocab, path)
    z = np.linspace(-3.0, 3.0, frames)
    nearest = int(np.argmin(np.abs(z - 1.0)))
    assert nearest == 3
    for record in _read_attention_dump(path):
        assert int(np.argmax(record["frame_aggregate"])) == nearest


def test_export_attention_single_frame(tmp_path):
    cfg, params, batch, feats = _export_setup(frames=1)
    src_vocab = type("V", (), {"tokens": [f"tok{i}" for i in range(9)]})()
    path = tmp_path / "attn.jsonl"
    export_attention(params, cfg, batch.src, batch.src_mask, feats, src_vocab, path)
    for record in _read_attention_dump(path):
        assert all(row == [1.0] for row in record["weights"])
