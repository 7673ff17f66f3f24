"""Benchmark entry point.

    python3 perfbench/run.py --workload {train,gradcheck,decode,ingest} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``
of that checkout. BLAS and OpenMP are pinned to one thread before numpy is
imported. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` (times at the reference speed, see
``harness.SpeedProbe``), the per-layer metrics with ``--trace 1``. The
lines before it print every named metric, as measured and at the reference
speed, with its unit and sample count; the full report (machine record,
operations, spans) is written to ``perfbench/out/``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from harness import (  # noqa: E402
    PROBE_NOMINAL_S, THREAD_ENV, Recorder, SpeedProbe, Stat, environment, median,
    peak_rss_mb, percentile,
)

for _name in THREAD_ENV:
    os.environ[_name] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3


class Context:
    """Where a workload writes, and what to remove when the run ends."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.cleanup = []


def parse_args(argv):
    from workloads import NAMES

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import numpy and safa from this checkout's src/, or exit without a result."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "safa", "__init__.py")):
        sys.stderr.write(f"perfbench: no program to measure: {src}/safa is missing\n")
        raise SystemExit(2)
    sys.path.insert(0, src)
    import numpy  # noqa: F401

    import safa

    if os.path.dirname(os.path.dirname(os.path.abspath(safa.__file__))) != src:
        sys.stderr.write(f"perfbench: imported safa from {safa.__file__}, not {src}\n")
        raise SystemExit(2)
    from tracer import LAYERS

    return {name: importlib.import_module(f"safa.{name}") for name in LAYERS}


def _line(name, value, normalised, unit, samples):
    return f"  {name:<30} {value:>13.6g} {normalised:>13.6g}  {unit:<6} (n={samples})"


def main(argv=None):
    args = parse_args(argv)
    modules = import_program()
    imported = (_START, time.perf_counter())
    probe = SpeedProbe()
    if not args.trace:          # traced times stay raw; probes would land inside spans
        probe.start()

    import layers
    from tracer import LAYERS, Tracer

    workload = importlib.import_module(f"workloads.{args.workload}")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    ctx = Context(out_dir)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            state = workload.setup(args.seed, ctx)
            setups.append((start, time.perf_counter()))
        tracer = Tracer(modules) if args.trace else None
        recorder = Recorder(tracer)
        outcome = workload.run(state, args.seconds, recorder)
    finally:
        probe.stop()
        for step in ctx.cleanup:
            step()

    def setup_seconds(seconds):
        return seconds(*imported) + median([seconds(a, b) for a, b in setups])

    attempted, failed = outcome["attempted"], outcome["failed"]
    rss = peak_rss_mb()
    named = {   # name -> (unit, as measured, at the reference speed, samples)
        "setup_s": ("s", setup_seconds(probe.seconds), setup_seconds(probe.normalised),
                    SETUP_REPEATS),
        "peak_rss_mb": ("MB", rss, rss, 1),
        "failed_share": ("share", failed / attempted, failed / attempted, attempted),
    }
    for name, stat in outcome["stats"].items():
        named[name] = (stat.unit, stat.value(probe.seconds), stat.value(probe.normalised),
                       stat.samples)
    for name, (value, unit, samples) in outcome.get("extra", {}).items():
        named[name] = (unit, value, value, samples)

    # The gated latency is the mean over the same intervals as the workload's
    # median latency: with 3-12 long operations a run, the mean is the steadier.
    op = outcome["stats"][outcome["op"]]
    op_mean = Stat(op.unit, op.intervals, "mean", op.scale).value(probe.normalised)
    end_to_end = {
        "setup_s": {"value": named["setup_s"][2], "unit": "s"},
        "op_ms_mean": {"value": op_mean * (1000.0 if op.unit == "s" else 1.0), "unit": "ms"},
        "work_per_s": {"value": named[outcome["work"]][2], "unit": "1/s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "unit_operation": workload.UNIT,
        "environment": environment(),
        "speed_probe": {
            "samples": len(probe.durations), "nominal_ms": PROBE_NOMINAL_S * 1000.0,
            **{f"p{q}_ms": percentile(probe.durations, q) * 1000.0
               for q in (10, 50, 90) if probe.durations},
        },
        "named": {name: {"unit": unit, "value": value, "at_reference_speed": norm, "samples": n}
                  for name, (unit, value, norm, n) in named.items()},
        "end_to_end": end_to_end,
        "operations": recorder.ops,
        "details": outcome["details"],
    }

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(report["environment"], sort_keys=True))
    print("speed probe: " + json.dumps(report["speed_probe"]))
    print(f"  {'metric':<30} {'measured':>13} {'at ref speed':>13}  unit")
    for name, (unit, value, norm, n) in named.items():
        print(_line(name, value, norm, unit, n))

    if args.trace:
        share, per_unit_ms = recorder.overhead()
        values = layers.values(tracer, recorder.traced_units(), share, per_unit_ms,
                               recorder.traced_seconds())
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layers.units().items()}
        report["per_layer"] = metrics
        report["functions"] = {
            name: {"calls": calls, "incl_ms": incl * 1000.0, "self_ms": own * 1000.0}
            for name, (calls, incl, own) in sorted(tracer.stats.items()) if calls
        }
        report["spans"] = tracer.span_record()
        print(f"traced {recorder.traced_units()} x {workload.UNIT}: "
              f"overhead {share:.1%}, coverage {values['trace.coverage_share']:.1%}")
        for layer in LAYERS:
            name = f"layer.{layer}.self_ms"
            print(_line(name, values[name], values[name], "ms", recorder.traced_units()))
    else:
        metrics = end_to_end

    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f)
    print(json.dumps({
        "correct": outcome["incorrect"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())    # an exception exits 1 with its traceback and no result line
