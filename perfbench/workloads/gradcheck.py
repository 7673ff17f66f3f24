"""gradcheck: ``evaluation.gradient_check_full_loss`` at d_model 8, 4 frames.

The loop of acceptance criterion 1: one operation is one central-difference
check of the composed loss, over consecutive seeds from the workload seed,
taken modulo ``CRITERION_SEEDS``: criterion 1 checks seeds 0-9. Outside
them the check can fail with no gradient at fault: at seed 11 a ReLU input
of ``encoder.0.ffn`` lies within the 1e-4 step of zero, so the central
difference straddles the kink (relative error 0.91 at step 1e-4, 9e-10 at
1e-5).
Thousands of forwards run on 2x3 batches, so per-primitive Python overhead
dominates, the opposite regime to ``train``.
"""

import math

from harness import Stat, closed_loop

from safa import evaluation, model

UNIT = "gradient check"
D_MODEL, FRAMES = 8, 4
TOLERANCE = 1e-3
CRITERION_SEEDS = 10


class State:
    pass


def loss_evaluations():
    """Loss evaluations in one check: 2 per parameter entry, 2 determinism calls, 1 taped.

    The config mirrors the one ``gradient_check_full_loss`` builds.
    """
    cfg = model.ModelConfig(
        src_vocab_size=8, tgt_vocab_size=8, video_feature_dim=3,
        encoder_layers=1, decoder_layers=1, d_model=D_MODEL, d_ffn=2 * D_MODEL,
        heads=2, dropout=0.0, frames_per_clip=FRAMES,
    )
    entries = sum(math.prod(shape) for _, shape in model.parameter_shapes(cfg).values())
    return 2 * entries + 3


def setup(seed, ctx):
    s = State()
    s.seed = seed
    s.evals = loss_evaluations()
    return s


def run(s, seconds, recorder):
    checks, errors = [], []
    attempted = failed = 0
    for i in closed_loop(seconds, min_ops=2 if recorder.tracer else 1):
        with recorder.op("check") as op:
            err = evaluation.gradient_check_full_loss(
                (s.seed + i) % CRITERION_SEEDS, d_model=D_MODEL, frames=FRAMES)
        if not op["traced"]:
            checks.append((op["start"], op["end"]))
        attempted += 1
        errors.append(err)
        if not err < TOLERANCE:
            failed += 1
    return {
        "attempted": attempted, "failed": failed, "incorrect": failed,
        "stats": {
            "gradcheck.evals_per_s": Stat("1/s", checks, "rate", work=s.evals * len(checks)),
            "gradcheck.check_s_p50": Stat("s", checks, 50),
        },
        "op": "gradcheck.check_s_p50", "work": "gradcheck.evals_per_s",
        "details": {"max_relative_errors": errors},
    }
