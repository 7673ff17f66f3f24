"""Property tests: checkpoint round trips, corrupted binaries, ambiguous-set selection.

Examples are derandomized, so every run checks the same inputs.
"""

import itertools
import math
import struct

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from safa import tensor as T
from safa.corpus import (
    AmbiguitySelectionConfig,
    AmbiguousTranslationSet,
    CorpusParseError,
    SubtitleRecord,
    collect_translation_sets,
    load_video_features,
    normalize_text,
    save_video_features,
    select_ambiguous_sets,
)
from safa.model import ModelConfig, ModelParameters

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


def _checkpoint_header_offsets(data):
    """Every byte offset of a checkpoint that is not a parameter value.

    Any 8 value bytes are some float64, so corrupting them can only load.
    """
    offsets, at = list(range(8)), 8
    while at < len(data):
        (name_len,) = struct.unpack_from("<H", data, at)
        rank = data[at + 2 + name_len]
        dims = struct.unpack_from(f"<{rank}Q", data, at + 3 + name_len)
        header = 3 + name_len + 8 * rank
        offsets.extend(range(at, at + header))
        at += header + 8 * math.prod(dims)
    return offsets


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
    path.write_bytes(_corrupt(data, draw, _checkpoint_header_offsets(data)))
    _loads_or_names_the_file(path, lambda p: ModelParameters.load(p, _CFG), T.CheckpointError)


@settings(max_examples=150, **_SETTINGS)
@given(draw=st.data())
def test_corrupted_feature_file_loads_or_names_the_file(tmp_path, draw):
    path = tmp_path / "clip.evaf"
    save_video_features(path, np.arange(15.0).reshape(5, 3))
    data = path.read_bytes()
    path.write_bytes(_corrupt(data, draw, range(len(data))))
    _loads_or_names_the_file(path, load_video_features, CorpusParseError)


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
