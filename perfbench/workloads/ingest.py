"""ingest: the ``safa pipeline`` stages driven in-process through ``safa.cli.main``.

One operation round runs windows, transets, ambiguous (baseline char-3-gram
scorer), votes, alpha, splits, vocab (both sides), flags and context over a
generated corpus of ``N_RECORDS`` records whose repeated sources plant
translation sets, plus a vote file in the ``first|second`` owner format.
The round then writes and reads back one EVAF feature file per video of
the corpus (``N_VIDEOS``, named ``<video_id>.evaf`` as the README's file
formats say) and one SAFA checkpoint, and reads ``len(CORRUPT)`` corrupted
binaries. For a corrupted file the only correct outcome is
``CorpusParseError`` / ``CheckpointError`` naming the file.

Each EVAF file holds ``EVAF_SHAPE`` = 250 frames (the 10 s clip window of
``corpus.compute_clip_window`` at 25 fps) by 512 dims (the feature size of
the README's library example). Video ``k`` gets the ``k % FEATURE_POOL``-th
of ``FEATURE_POOL`` random feature matrices, so that the round's 410 MB of
EVAF traffic is not also held in memory.

Inputs come from a recorded pool: the seed picks one of ``VARIANTS``
corpora, whose stage outputs and binaries have digests recorded at the
parent commit.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import struct
import time

import numpy as np

from harness import Stat, closed_loop

from safa import cli, corpus, model, tensor

UNIT = "ingest round"
N_RECORDS = 20_000
VARIANTS = 16
RECORDS_PER_VIDEO = 25
N_VIDEOS = N_RECORDS // RECORDS_PER_VIDEO
EVAF_SHAPE = (250, 512)
FEATURE_POOL = 16
SET_SOURCES = 3_000             # sources repeated into translation sets
VOTE_TASKS = 1_500

STAGES = (
    ("windows", ["--in", "corpus.jsonl", "--out", "windows.jsonl"], "windows.jsonl"),
    ("transets", ["--in", "corpus.jsonl", "--out", "transets.jsonl"], "transets.jsonl"),
    ("ambiguous", ["--in", "corpus.jsonl", "--out", "ambiguous.jsonl"], "ambiguous.jsonl"),
    ("votes", ["--in", "votes.csv", "--out", "decisions.csv"], "decisions.csv"),
    ("alpha", ["--in", "votes.csv", "--out", "alpha.txt"], "alpha.txt"),
    ("splits", ["--in", "corpus.jsonl", "--decisions", "decisions.csv", "--out", "splits.csv"],
     "splits.csv"),
    ("vocab", ["--in", "corpus.jsonl", "--side", "source", "--out", "src-vocab.txt"],
     "src-vocab.txt"),
    ("vocab", ["--in", "corpus.jsonl", "--side", "target", "--out", "tgt-vocab.txt"],
     "tgt-vocab.txt"),
    ("flags", ["--in", "corpus.jsonl", "--out", "flags.csv"], "flags.csv"),
    ("context", ["--in", "corpus.jsonl", "--out", "context.jsonl"], "context.jsonl"),
)


def _absurd_evaf(valid):
    """EVAF dims of 2**32 - 1: the payload size overflows any read."""
    return valid[:4] + struct.pack("<II", 2**32 - 1, 2**32 - 1) + valid[12:112]


def _absurd_ckpt(valid):
    """Checkpoint dims whose product overflows int64 (2**64 wraps to 0 in np.prod)."""
    name = b"huge"
    return (valid[:8] + struct.pack("<H", len(name)) + name + struct.pack("<B", 2)
            + struct.pack("<2Q", 2**32, 2**32) + bytes(16))


# Corrupted binaries read once per round: (file name, format, kind, bytes from
# a valid file). At the parent commit the header-truncated and absurd-dim
# files raise struct.error, OverflowError or an unrelated ValueError instead
# of the documented error naming the file.
CORRUPT = (
    ("evaf-header-truncated.evaf", "evaf", "header", lambda valid: valid[:6]),
    ("evaf-payload-truncated.evaf", "evaf", "payload", lambda valid: valid[:-100]),
    ("evaf-absurd-dims.evaf", "evaf", "absurd", _absurd_evaf),
    ("ckpt-header-truncated-6.ckpt", "ckpt", "header", lambda valid: valid[:6]),
    ("ckpt-header-truncated-9.ckpt", "ckpt", "header", lambda valid: valid[:9]),
    ("ckpt-header-truncated-11.ckpt", "ckpt", "header", lambda valid: valid[:11]),
    ("ckpt-payload-truncated.ckpt", "ckpt", "payload", lambda valid: valid[:-100]),
    ("ckpt-absurd-dims.ckpt", "ckpt", "absurd", _absurd_ckpt),
)
OPS_PER_ROUND = len(STAGES) + N_VIDEOS + 1 + len(CORRUPT)
PLANTED_DEFECT_SHARE = sum(kind != "payload" for _, _, kind, _ in CORRUPT) / OPS_PER_ROUND

REFERENCE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "reference", "ingest.json")


class State:
    pass


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def video_id(variant, video):
    return f"v{variant:02d}video{video:04d}"


def _cognate(word):
    return word + "o" if len(word) < 5 else word[:-1] + "a"


def make_corpus(variant):
    """(records, vote file lines) of one corpus variant."""
    rng = np.random.default_rng([variant, 13])
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    lexicon = sorted({"".join(rng.choice(letters, size=rng.integers(3, 9))) for _ in range(5000)})

    def words(n):
        return [lexicon[i] for i in rng.integers(0, len(lexicon), size=n)]

    pairs = []   # (source, target)
    for k in range(SET_SOURCES):
        src = words(int(rng.integers(4, 13)))
        half = len(src) // 2
        faithful = [_cognate(w) for w in src]
        if k % 2 == 0:
            # ambiguous: each target keeps a different half of the source
            first = faithful[:half] + words(len(src) - half)
            second = words(half) + faithful[half:]
            targets = [first, first, second, second]
        else:
            # paraphrases: targets differ in one word, so no pair is dissimilar
            other = list(faithful)
            other[int(rng.integers(0, len(other)))] = _cognate(words(1)[0])
            targets = [faithful, faithful, other]
        pairs.extend((" ".join(src), " ".join(t)) for t in targets)
    while len(pairs) < N_RECORDS:
        src = words(int(rng.integers(3, 13)))
        pairs.append((" ".join(src), " ".join(_cognate(w) for w in src)))
    order = rng.permutation(len(pairs))[:N_RECORDS]

    records = []
    for i, j in enumerate(order):
        video, slot = divmod(i, RECORDS_PER_VIDEO)
        start = 1_000 + slot * 3_000 + int(rng.integers(0, 500))
        records.append(corpus.SubtitleRecord(
            id=f"v{variant:02d}r{i:05d}", source_text=pairs[j][0], target_text=pairs[j][1],
            start_ms=start, end_ms=start + int(rng.integers(800, 2_500)),
            video_id=video_id(variant, video),
        ))

    choices = np.array(["none", "first", "second", "both"])
    lines = ["task_id,clip_owner,worker_id,choice"]
    for rid in sorted(rng.choice(N_RECORDS, size=VOTE_TASKS, replace=False)):
        owner = "first" if rng.random() < 0.5 else "second"
        workers = rng.choice(60, size=3, replace=False)
        for worker, choice in zip(workers, rng.choice(choices, size=3, p=[0.15, 0.4, 0.3, 0.15])):
            lines.append(f"{records[rid].id},{owner},w{worker:03d},{choice}")
    return records, lines


def make_binaries(variant):
    """(pooled EVAF feature arrays, checkpoint config, checkpoint parameters) of one variant."""
    rng = np.random.default_rng([variant, 17])
    feats = [rng.standard_normal(EVAF_SHAPE).astype(np.float32) for _ in range(FEATURE_POOL)]
    cfg = model.ModelConfig(
        src_vocab_size=2000, tgt_vocab_size=2000, video_feature_dim=EVAF_SHAPE[1],
        encoder_layers=2, decoder_layers=2, d_model=32, d_ffn=64, heads=4,
    )
    return feats, cfg, model.ModelParameters.build(cfg, seed=variant)


def prepare(variant, ctx):
    """Write one variant's corpus, vote file and corrupted binaries to a work directory."""
    s = State()
    s.variant = variant
    s.work = os.path.join(ctx.out_dir, f"ingest-work-{os.getpid()}")
    shutil.rmtree(s.work, ignore_errors=True)
    os.makedirs(s.work)
    ctx.cleanup.append(lambda: shutil.rmtree(s.work, ignore_errors=True))
    records, vote_lines = make_corpus(s.variant)
    corpus.write_corpus(os.path.join(s.work, "corpus.jsonl"), records)
    with open(os.path.join(s.work, "votes.csv"), "w", encoding="utf-8") as f:
        f.write("\n".join(vote_lines) + "\n")
    s.feats, s.cfg, s.params = make_binaries(s.variant)

    sample_evaf = os.path.join(s.work, "sample.evaf")
    sample_ckpt = os.path.join(s.work, "sample.ckpt")
    corpus.save_video_features(sample_evaf, s.feats[0])
    s.params.save(sample_ckpt)
    valid = {}
    for fmt, path in (("evaf", sample_evaf), ("ckpt", sample_ckpt)):
        with open(path, "rb") as f:
            valid[fmt] = f.read()
        os.remove(path)
    s.corrupt = []
    for name, fmt, _kind, corrupt in CORRUPT:
        path = os.path.join(s.work, name)
        with open(path, "wb") as f:
            f.write(corrupt(valid[fmt]))
        s.corrupt.append((path, fmt))
    return s


def setup(seed, ctx):
    s = prepare(seed % VARIANTS, ctx)
    with open(REFERENCE, encoding="utf-8") as f:
        s.reference = json.load(f)["variants"][str(s.variant)]
    return s


# ---------------------------------------------------------------------------
# One round
# ---------------------------------------------------------------------------


def _digest(path):
    """A 64-bit prefix of the file's SHA-256, enough to catch any corruption here."""
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


@contextlib.contextmanager
def _inside(directory):
    previous = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(previous)


def run_stages(s):
    """Run every stage in the work directory; returns ((start, end), exit code per output)."""
    codes = {}
    sink = io.StringIO()
    start = time.perf_counter()
    with _inside(s.work), contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for stage, args, out in STAGES:
            codes[out] = cli.main(["pipeline", stage, *args, "--seed", str(s.variant)])
    return (start, time.perf_counter()), codes


def stage_digests(s, codes):
    """{output: [exit code, digest, manifest digest]} of the last stage run."""
    digests = {}
    for out, code in codes.items():
        paths = (os.path.join(s.work, out), os.path.join(s.work, out + ".manifest.json"))
        digests[out] = [code] + [_digest(p) if os.path.exists(p) else None for p in paths]
    return digests


def binary_paths(s):
    """Every EVAF file, one per video, then the checkpoint."""
    evaf = [os.path.join(s.work, f"{video_id(s.variant, k)}.evaf") for k in range(N_VIDEOS)]
    return evaf + [os.path.join(s.work, "model.ckpt")]


def run_binaries(s):
    """Write and read back every binary, checking each round trip between the timed calls.

    Returns the save-and-load intervals, the bytes moved, whether each round
    trip was bit-exact and the seconds spent outside the intervals (checks).
    Checking at once keeps one loaded file in memory, not all of them.
    """
    intervals, moved, exact = [], 0, []
    *evaf, ckpt = binary_paths(s)
    for k, path in enumerate(evaf):
        feats = s.feats[k % FEATURE_POOL]
        start = time.perf_counter()
        corpus.save_video_features(path, feats)
        got = corpus.load_video_features(path)
        intervals.append((start, time.perf_counter()))
        moved += 2 * os.path.getsize(path)
        exact.append(got.dtype == np.float64 and np.array_equal(got, feats.astype(np.float64)))
    start = time.perf_counter()
    s.params.save(ckpt)
    loaded = model.ModelParameters.load(ckpt, s.cfg)
    intervals.append((start, time.perf_counter()))
    moved += 2 * os.path.getsize(ckpt)
    exact.append(all(loaded[name].data.tobytes() == t.data.tobytes()
                     for name, t in s.params.items()))
    checking = time.perf_counter() - intervals[0][0] - sum(b - a for a, b in intervals)
    return intervals, moved, exact, checking


def binary_digests(s):
    """Digests of every binary the last run_binaries wrote, in binary_paths order."""
    return [_digest(path) for path in binary_paths(s)]


def expected_binary_digests(ref):
    """The recorded digests in binary_paths order: video k holds pooled features k % FEATURE_POOL."""
    return [ref["evaf"][k % FEATURE_POOL] for k in range(N_VIDEOS)] + [ref["ckpt"]]


def read_corrupt(s):
    """Per corrupted file, True when loading it fails with the documented error naming it."""
    ok = []
    for path, fmt in s.corrupt:
        try:
            if fmt == "evaf":
                corpus.load_video_features(path)
            else:
                model.ModelParameters.load(path, s.cfg)
        except (corpus.CorpusParseError, tensor.CheckpointError) as exc:
            ok.append(path in str(exc))
        except Exception:  # noqa: BLE001 - any other error is the failure being counted
            ok.append(False)
        else:
            ok.append(False)
    return ok


def check_round(s, stages, binaries, exact):
    """(failed operations, incorrect outputs) of one round, against the recorded digests."""
    ref = s.reference
    failed = incorrect = 0
    for out, (code, digest, manifest) in stages.items():
        if code != 0 or [digest, manifest] != ref["stages"].get(out):
            failed += 1
            incorrect += 1
    for digest, expected, same in zip(binaries, expected_binary_digests(ref), exact):
        if not same or digest != expected:
            failed += 1
            incorrect += 1
    return failed, incorrect


def run(s, seconds, recorder):
    rounds, stages, io, io_bytes = [], [], [], 0
    attempted = failed = incorrect = 0
    for _ in closed_loop(seconds, min_ops=2 if recorder.tracer else 1):
        with recorder.op("round") as op:
            stage_interval, codes = run_stages(s)
            io_intervals, moved, exact, op["excluded"] = run_binaries(s)
            start = time.perf_counter()
            rejected = read_corrupt(s)
            corrupt_interval = (start, time.perf_counter())
        if not op["traced"]:
            # A round's time is that of its program calls, not of the checks between them.
            rounds.append([stage_interval, *io_intervals, corrupt_interval])
            stages.append(stage_interval)
            io.extend(io_intervals)
            io_bytes += moved
        bad, wrong = check_round(s, stage_digests(s, codes), binary_digests(s), exact)
        attempted += OPS_PER_ROUND
        failed += bad + sum(not r for r in rejected)
        incorrect += wrong
    return {
        "attempted": attempted, "failed": failed, "incorrect": incorrect,
        "stats": {
            "ingest.records_per_s": Stat("1/s", stages, "rate", work=N_RECORDS * len(stages)),
            "ingest.io_mb_per_s": Stat("MB/s", io, "rate", work=io_bytes / 1e6),
            "ingest.round_ms_p50": Stat("ms", rounds, 50, 1000.0),
        },
        "op": "ingest.round_ms_p50", "work": "ingest.records_per_s",
        "extra": {"ingest.planted_defect_share": (PLANTED_DEFECT_SHARE, "share", 1)},
        "details": {},
    }
