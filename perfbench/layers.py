"""Per-layer metric values from a traced run.

Names and units are the ``per_layer`` entries of ``BENCHMARK.json``; the
end-to-end metric each should move is in ``layers.json``. This module turns
a Tracer's aggregates into a value for every per-layer name. Times and counts are divided by the
number of unit operations traced (train steps, gradient checks, decoded
sentences or ingest rounds); shares are plain ratios.
"""

import json
import os

from tracer import LAYERS, OTHER_PRIMITIVES, REPORTED_PRIMITIVES

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
MOVES_PATH = os.path.join(HERE, "layers.json")


def units():
    """{per-layer metric name: unit}, in BENCHMARK.json's order."""
    with open(BENCHMARK_PATH, encoding="utf-8") as f:
        return {e["name"]: e["unit"] for e in json.load(f)["per_layer"]}


def moves():
    """{per-layer metric name: the end-to-end metrics a change to it should move}."""
    with open(MOVES_PATH, encoding="utf-8") as f:
        return json.load(f)["moves"]


def _ratio(num, den):
    return num / den if den else 0.0


def values(tracer, units, overhead_share, overhead_ms, traced_wall_s):
    """Map every per-layer name to its value for this run."""
    stats, counts = tracer.stats, tracer.counts
    per = 1.0 / max(units, 1)

    def calls(name):
        return stats[name][0] if name in stats else 0

    def incl_ms(name):
        return stats[name][1] * 1000.0 * per if name in stats else 0.0

    def self_ms(name):
        return stats[name][2] * 1000.0 * per if name in stats else 0.0

    out = {}
    for prim in REPORTED_PRIMITIVES:
        out[f"tensor.{prim}.calls"] = calls(f"tensor.{prim}") * per
        out[f"tensor.{prim}.fwd_ms"] = self_ms(f"tensor.{prim}")
        out[f"tensor.{prim}.bwd_ms"] = self_ms(f"tensor.{prim}.backward")
    out["tensor.other.calls"] = sum(calls(f"tensor.{p}") for p in OTHER_PRIMITIVES) * per
    out["tensor.other.fwd_ms"] = sum(self_ms(f"tensor.{p}") for p in OTHER_PRIMITIVES)
    out["tensor.other.bwd_ms"] = sum(self_ms(f"tensor.{p}.backward") for p in OTHER_PRIMITIVES)
    out["tensor.backward_ms"] = incl_ms("tensor.Tape.backward")
    out["tensor.prim_calls"] = sum(
        calls(f"tensor.{p}") for p in REPORTED_PRIMITIVES + OTHER_PRIMITIVES
    ) * per
    out["tensor.matmul.flops"] = counts["tensor.matmul.flops"] * per
    out["tensor.matmul.bytes"] = counts["tensor.matmul.bytes"] * per
    out["tensor.save_checkpoint_ms"] = incl_ms("tensor.save_checkpoint")
    out["tensor.load_checkpoint_ms"] = incl_ms("tensor.load_checkpoint")

    for fn in ("forward_full", "encode_text", "project_video", "selective_attention",
               "gated_fusion", "decode", "label_smoothed_loss", "frame_attention_loss",
               "total_loss"):
        out[f"model.{fn}_ms"] = incl_ms(f"model.{fn}")
    out["model.decode_calls"] = calls("model.decode") * per

    for fn in ("adam_step", "evaluate_loss", "make_batches"):
        out[f"training.{fn}_ms"] = incl_ms(f"training.{fn}")
    out["training.step_self_ms"] = self_ms("training.train")
    out["training.pad_share"] = _ratio(counts["training.pad_slots"], counts["training.token_slots"])

    out["evaluation.beam_decode_ms"] = incl_ms("evaluation.beam_decode")
    out["evaluation.fuse_ms"] = counts["evaluation.fuse_s"] * 1000.0 * per
    out["evaluation.decoder_positions"] = counts["evaluation.decoder_positions"] * per
    out["evaluation.useful_position_share"] = _ratio(
        counts["evaluation.new_positions"], counts["evaluation.decoder_positions"]
    )
    out["evaluation.search_self_ms"] = self_ms("evaluation.beam_decode")
    out["evaluation.corpus_bleu_ms"] = incl_ms("evaluation.corpus_bleu")

    for fn in ("parse_corpus", "compute_clip_window", "collect_translation_sets",
               "select_ambiguous_sets", "aggregate_votes", "krippendorff_alpha",
               "build_splits", "build_vocabulary", "flag_ambiguous_samples",
               "build_context_corpus", "save_video_features", "load_video_features"):
        out[f"corpus.{fn}_ms"] = incl_ms(f"corpus.{fn}")
    out["corpus.similarity_calls"] = calls("corpus.baseline_similarity") * per
    out["corpus.similarity_ms"] = incl_ms("corpus.baseline_similarity")
    out["corpus.rejected_inputs"] = counts["corpus.rejected_inputs"] * per

    for stage in ("windows", "transets", "ambiguous", "votes", "alpha", "splits", "vocab",
                  "flags", "context"):
        out[f"cli.main_ms.{stage}"] = incl_ms(f"cli.main.{stage}")
    out["cli.write_manifest_ms"] = incl_ms("cli.write_manifest")
    out["cli.digest_bytes"] = counts["cli.digest_bytes"] * per
    out["cli.exit_nonzero"] = counts["cli.exit_nonzero"] * per

    for layer in LAYERS:
        out[f"layer.{layer}.self_ms"] = sum(
            stat[2] for name, stat in stats.items() if name.split(".", 1)[0] == layer
        ) * 1000.0 * per
    out["trace.overhead_share"] = overhead_share
    out["trace.overhead_ms"] = overhead_ms
    out["trace.coverage_share"] = _ratio(tracer.root_s, traced_wall_s)
    out["trace.spans"] = (len(tracer.spans) + tracer.dropped_spans) * per
    return out
