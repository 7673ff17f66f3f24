"""Self-test of the benchmark: every workload at its smallest size.

    python3 -m pytest -q perfbench/tests/check_perfbench.py

Each workload runs once untraced and once traced with ``--seconds 0.1``
(one operation per phase, two when tracing). The test checks that every
metric is reported with its unit and that the outputs check clean at this
commit. In process, it corrupts one output of each kind the checks guard
(a perturbed hypothesis, a flipped byte in a stage output and in an EVAF
file) and checks that each counts as a failed operation. The file name
keeps it out of the repository's default test collection: it takes a few
minutes.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
SEED = 5
NAMED = {
    "train": ("train.tokens_per_s", "train.step_ms_p50"),
    "gradcheck": ("gradcheck.evals_per_s", "gradcheck.check_s_p50"),
    "decode": ("decode.greedy_ms_per_sent", "decode.beam5_ms_per_sent", "decode.tokens_per_s"),
    "ingest": ("ingest.records_per_s", "ingest.io_mb_per_s"),
}
COMMON = ("setup_s", "peak_rss_mb", "failed_share")

sys.path.insert(0, BENCH_DIR)


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _run(workload, trace, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _report(workload, trace):
    path = os.path.join(BENCH_DIR, "out", f"{workload}-seed{SEED}-trace{trace}.json")
    with open(path, encoding="utf-8") as f:
        return json.load(f)


@pytest.fixture(scope="module")
def untraced():
    return {w: _result(_run(w, 0)) for w in NAMED}


@pytest.fixture(scope="module")
def program():
    import run      # pins BLAS threads before numpy is imported

    run.import_program()
    return run


def test_benchmark_json_names_the_workloads_and_what_each_layer_moves():
    import layers
    from workloads import NAMES

    bench = _benchmark()
    assert [w["name"] for w in bench["workloads"]] == list(NAMES)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    moves = layers.moves()
    assert set(moves) == {name for name in layers.units() if not name.startswith("trace.")}
    assert all(moves.values())


@pytest.mark.parametrize("workload", list(NAMED))
def test_end_to_end_metrics_reported(workload, untraced):
    result = untraced[workload]
    expected = {m["name"]: m["unit"] for m in _benchmark()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) and v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] is True
    named = _report(workload, 0)["named"]
    for name in COMMON + NAMED[workload]:
        assert named[name]["unit"] and named[name]["samples"] >= 1, name
    if workload == "ingest":
        # Only the planted header-truncated and absurd-dim binaries may fail.
        planted = named["ingest.planted_defect_share"]["value"]
        assert 0 < planted < 0.1
        assert named["failed_share"]["value"] <= planted + 1e-12
    else:
        assert result["failed"] == 0


@pytest.mark.parametrize("workload", list(NAMED))
def test_per_layer_metrics_reported(workload):
    result = _result(_run(workload, 1))
    expected = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert result["metrics"]["trace.coverage_share"]["value"] > 0.5
    report = _report(workload, 1)
    assert report["functions"] and report["spans"]["spans"]


def test_perturbed_hypothesis_is_a_failed_operation(program, tmp_path):
    from workloads import decode

    s = decode.setup(SEED, program.Context(str(tmp_path)))
    phase, dc, _ = decode.PHASES[0]
    index = s.order[0]
    decoded = [(phase, index, row, hyp)
               for row, hyp in enumerate(decode.decode_batch(s, index, dc))]
    assert decode.check(s, decoded) == set()
    decoded[0] = (phase, index, 0, decode.perturb(decoded[0][3]))
    assert decode.check(s, decoded) == {0}


@pytest.fixture(scope="module")
def ingest_round(program, tmp_path_factory):
    """One ingest round's state, exit codes and round-trip flags, run in process."""
    from workloads import ingest

    ctx = program.Context(str(tmp_path_factory.mktemp("ingest")))
    s = ingest.setup(SEED, ctx)
    _, codes = ingest.run_stages(s)
    _, _, exact, _ = ingest.run_binaries(s)
    yield ingest, s, codes, exact
    for step in ctx.cleanup:
        step()


def _flip_byte(path):
    with open(path, "r+b") as f:
        first = f.read(1)
        f.seek(0)
        f.write(bytes([first[0] ^ 0x01]))


def test_flipped_output_byte_is_a_failed_operation(ingest_round):
    ingest, s, codes, exact = ingest_round

    def check():
        return ingest.check_round(s, ingest.stage_digests(s, codes), ingest.binary_digests(s),
                                  exact)

    assert check() == (0, 0)
    flipped = (os.path.join(s.work, ingest.STAGES[0][2]), ingest.binary_paths(s)[0])
    for path in flipped:
        _flip_byte(path)
    try:
        assert check() == (len(flipped), len(flipped))
    finally:
        for path in flipped:
            _flip_byte(path)


def test_payload_truncated_binaries_are_rejected_as_documented(ingest_round):
    ingest, s, _, _ = ingest_round
    rejected = dict(zip((name for name, _, _, _ in ingest.CORRUPT), ingest.read_corrupt(s)))
    payload = [name for name, _, kind, _ in ingest.CORRUPT if kind == "payload"]
    assert len(payload) == 2
    assert all(rejected[name] for name in payload)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("decode", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
