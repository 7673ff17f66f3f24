"""Record the reference outputs the benchmark checks its runs against.

    python3 perfbench/record.py [train] [decode] [ingest]

Run from the root of a checkout, at the commit whose outputs are the
reference; writes ``perfbench/reference/<workload>.json``. A change that
alters outputs on purpose (for example a kernel that reorders float sums)
re-records them in a change of its own.
"""

import json
import math
import os
import statistics
import sys

import run  # pins BLAS threads before numpy is imported

TRAIN_SEEDS = range(16)
TRAIN_TOLERANCE_SPREADS = 4     # band half-width in seed-to-seed standard deviations


def _write(name, payload):
    path = os.path.join(run.HERE, "reference", f"{name}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, sort_keys=True)
        f.write("\n")
    print(f"wrote {path}")


def record_train():
    from workloads import train

    losses = []
    for seed in TRAIN_SEEDS:
        s = train.build(seed)
        _, _, _, result = train.train_once(s, seed)
        losses.append(train.final_val_loss(result))
        print(f"train seed {seed}: final validation loss {losses[-1]:.6f}", flush=True)
    if not all(math.isfinite(x) for x in losses):
        raise SystemExit("non-finite reference loss")
    spread = statistics.stdev(losses)
    _write("train", {
        "steps": train.STEPS, "seeds": list(TRAIN_SEEDS), "final_val_losses": losses,
        "mean": statistics.mean(losses), "stdev": spread,
        "tolerance": TRAIN_TOLERANCE_SPREADS * spread,
    })


def record_decode():
    from workloads import decode

    variants = {}
    for variant in range(decode.MODEL_VARIANTS):
        s = decode.State()
        s.cfg, s.params, s.vocab, s.batches = decode.build(variant)
        variants[str(variant)] = {
            phase: [decode.decode_batch(s, index, dc) for index in range(decode.POOL_BATCHES)]
            for phase, dc, _ in decode.PHASES
        }
        print(f"decode variant {variant} recorded", flush=True)
    _write("decode", {"variants": variants})


def record_ingest():
    from workloads import ingest

    ctx = run.Context(os.path.join(run.HERE, "out"))
    os.makedirs(ctx.out_dir, exist_ok=True)
    variants = {}
    try:
        for variant in range(ingest.VARIANTS):
            s = ingest.prepare(variant, ctx)
            stages = ingest.stage_digests(s, ingest.run_stages(s)[1])
            exact = ingest.run_binaries(s)[2]
            *evaf, ckpt = ingest.binary_digests(s)
            if any(code != 0 for code, _, _ in stages.values()) or not all(exact):
                raise SystemExit(f"ingest variant {variant}: a stage failed or a round trip differs")
            if any(d != evaf[k % ingest.FEATURE_POOL] for k, d in enumerate(evaf)):
                raise SystemExit(f"ingest variant {variant}: equal features wrote different bytes")
            variants[str(variant)] = {
                "stages": {out: [digest, manifest] for out, (_, digest, manifest) in stages.items()},
                "evaf": evaf[:ingest.FEATURE_POOL],
                "ckpt": ckpt,
            }
            print(f"ingest variant {variant} recorded", flush=True)
    finally:
        for step in ctx.cleanup:
            step()
    _write("ingest", {"variants": variants})


def main(argv):
    run.import_program()
    chosen = argv or ["train", "decode", "ingest"]
    for name in chosen:
        {"train": record_train, "decode": record_decode, "ingest": record_ingest}[name]()


if __name__ == "__main__":
    main(sys.argv[1:])
