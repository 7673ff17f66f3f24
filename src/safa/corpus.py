"""Parallel-subtitle corpus pipeline.

Parses line-delimited subtitle records, computes fixed 10-second clip
windows, groups identical sources into translation sets, selects ambiguous
pairs by threshold relaxation, aggregates crowd votes, scores annotator
reliability, and builds splits, vocabularies, ambiguity flags, and context
corpora. Everything is pure functions over in-memory records; all
randomness is seeded.
"""

import json
import math
import struct
import unicodedata
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .tensor import all_finite, read_exact

PAD_ID, UNK_ID, BOS_ID, EOS_ID = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<unk>", "<bos>", "<eos>")

CLIP_WINDOW_MS = 10_000
CLIP_FPS = 25
CONTEXT_SEPARATOR = "<sep>"


class CorpusParseError(ValueError):
    """Malformed corpus line (carries the 1-based line number)."""


class ClipWindowError(ValueError):
    """The video is too short to hold a full clip window."""


class VoteAggregationError(ValueError):
    """A task does not have exactly three votes."""


class ReliabilityError(ValueError):
    """Krippendorff's alpha is undefined (no unit has two ratings)."""


def normalize_text(text):
    """NFC-normalize and trim; the comparison key for 'same subtitle'."""
    return unicodedata.normalize("NFC", text).strip()


@dataclass(slots=True)
class SubtitleRecord:
    id: str
    source_text: str
    target_text: str
    start_ms: int
    end_ms: int
    video_id: str
    split_hint: str | None = None

    def __post_init__(self):
        if not (0 <= self.start_ms < self.end_ms):
            raise ValueError(f"record {self.id}: need 0 <= start_ms < end_ms")
        if not self.source_text.strip() or not self.target_text.strip():
            raise ValueError(f"record {self.id}: empty text after trimming")


@dataclass
class ClipWindow:
    video_id: str
    window_start_ms: int
    window_end_ms: int
    frame_count: int = CLIP_WINDOW_MS // 1000 * CLIP_FPS


@dataclass
class TranslationSet:
    source_text: str
    member_ids: list
    target_texts: list  # distinct, sorted


@dataclass
class AmbiguousTranslationSet:
    source_text: str
    first_target: str
    second_target: str
    first_id: str
    second_id: str
    parallel_threshold: float  # the T_p level at which the pair was selected
    pair_similarity: float


@dataclass
class AmbiguitySelectionConfig:
    target_threshold: float = 0.3
    parallel_schedule: tuple = (0.8, 0.7, 0.6, 0.5, 0.4, 0.3)

    def __post_init__(self):
        levels = tuple(self.parallel_schedule)
        if any(b >= a for a, b in zip(levels, levels[1:])):
            raise ValueError("parallel_schedule must be strictly descending")
        if not 0.0 <= self.target_threshold <= 1.0:
            raise ValueError(f"target_threshold must lie in [0, 1], got {self.target_threshold}")
        if not all(0.0 <= t <= 1.0 for t in levels):
            raise ValueError(f"parallel_schedule must lie in [0, 1], got {levels}")
        self.parallel_schedule = levels


@dataclass
class VoteRecord:
    task_id: str
    clip_owner: str   # "first" | "second"
    worker_id: str
    choice: str       # "none" | "first" | "second" | "both"

    _CHOICES = ("none", "first", "second", "both")

    def __post_init__(self):
        if self.clip_owner not in ("first", "second"):
            raise ValueError(f"task {self.task_id}: clip_owner must be first|second")
        if self.choice not in self._CHOICES:
            raise ValueError(f"task {self.task_id}: choice must be one of {self._CHOICES}")


@dataclass
class Vocabulary:
    tokens: list = field(default_factory=lambda: list(RESERVED_TOKENS))  # the reserved tokens first

    def __post_init__(self):
        self.index = {tok: i for i, tok in enumerate(self.tokens)}

    def __len__(self):
        return len(self.tokens)

    def encode(self, text):
        return [self.index.get(tok, UNK_ID) for tok in text.split()]

    def decode(self, ids):
        return " ".join(self.tokens[i] for i in ids if i >= len(RESERVED_TOKENS) or i == UNK_ID)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for tok in self.tokens:
                f.write(tok + "\n")

    @classmethod
    def load(cls, path):
        """Read one token a line (blank lines skipped); the reserved tokens come first, and no token repeats."""
        lines = {}  # token -> its line number
        with _utf8_named(path), open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                token = line.rstrip("\n")
                if token and lines.setdefault(token, lineno) != lineno:
                    raise ValueError(f"{path}:{lineno}: token {token!r} repeats line {lines[token]}")
        tokens = list(lines)
        if tokens[:4] != list(RESERVED_TOKENS):
            raise ValueError(f"{path}: vocabulary must start with {RESERVED_TOKENS}")
        return cls(tokens)


def pad_rows(rows):
    """Right-pad token-id rows with PAD_ID to the longest row.

    Returns (ids, mask): an int64 (B, W) matrix and a bool (B, W) mask that
    is True on real tokens.
    """
    width = max(len(row) for row in rows)
    ids = np.full((len(rows), width), PAD_ID, dtype=np.int64)
    mask = np.zeros((len(rows), width), dtype=bool)
    for i, row in enumerate(rows):
        ids[i, : len(row)] = row
        mask[i, : len(row)] = True
    return ids, mask


# ---------------------------------------------------------------------------
# Parsing and windows
# ---------------------------------------------------------------------------

_REQUIRED_FIELDS = ("id", "source_text", "target_text", "start_ms", "end_ms", "video_id")

# Built once: json.loads scans for leading and trailing whitespace that a
# stripped line cannot hold.
_decode_json = json.JSONDecoder().raw_decode


@contextmanager
def _utf8_named(path):
    """Turn a UnicodeDecodeError raised inside into a CorpusParseError naming ``path``."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise CorpusParseError(f"{path}: not UTF-8 text: {exc.reason}") from None


def parse_corpus(path, lenient=False):
    """Read line-delimited JSON records, preserving order.

    Malformed lines raise CorpusParseError naming the line, or are skipped
    (and reported in the second return value) in lenient mode. A file that
    is not UTF-8 raises CorpusParseError naming the file.
    Returns (records, skipped line numbers).
    """
    records, skipped = [], []
    with _utf8_named(path), open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj, end = _decode_json(line)
                if end != len(line):
                    raise json.JSONDecodeError("Extra data", line, end)
                missing = [k for k in _REQUIRED_FIELDS if k not in obj]
                if missing:
                    raise ValueError(f"missing field {missing[0]!r}")
                records.append(SubtitleRecord(
                    str(obj["id"]), str(obj["source_text"]), str(obj["target_text"]),
                    int(obj["start_ms"]), int(obj["end_ms"]), str(obj["video_id"]),
                    obj.get("split_hint"),
                ))
            except (ValueError, TypeError, OverflowError, RecursionError) as exc:
                if lenient:
                    skipped.append(lineno)
                else:
                    raise CorpusParseError(f"{path}:{lineno}: {exc}") from None
    return records, skipped


def write_jsonl(path, rows):
    """Write each dict of ``rows`` as one line of JSON: keys sorted, text as UTF-8, not escaped.

    The encoder is built once a file; json.dumps with keyword arguments would build one a row.
    """
    encode_json = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(encode_json(row) + "\n")


def write_corpus(path, records):
    """Write ``records`` in the line-delimited format ``parse_corpus`` reads; an unset split hint is left out."""
    fields = _REQUIRED_FIELDS + ("split_hint",)
    write_jsonl(path, ({name: value for name in fields if (value := getattr(r, name)) is not None}
                       for r in records))


def compute_clip_window(record, video_duration_ms=None):
    """Fixed 10 s window centered on the subtitle midpoint at 25 fps.

    A window that would cross [0, duration] is shifted, not truncated, so
    the frame count stays constant.
    """
    if video_duration_ms is not None and video_duration_ms < CLIP_WINDOW_MS:
        raise ClipWindowError(
            f"record {record.id}: video {record.video_id} is shorter than {CLIP_WINDOW_MS} ms"
        )
    midpoint = (record.start_ms + record.end_ms) // 2
    start = midpoint - CLIP_WINDOW_MS // 2
    if start < 0:
        start = 0
    if video_duration_ms is not None and start + CLIP_WINDOW_MS > video_duration_ms:
        start = video_duration_ms - CLIP_WINDOW_MS
    return ClipWindow(record.video_id, start, start + CLIP_WINDOW_MS)


# ---------------------------------------------------------------------------
# Translation sets and ambiguity
# ---------------------------------------------------------------------------


def collect_translation_sets(records):
    """Group by identical (normalized) source; keep groups with >= 2 distinct targets."""
    groups = defaultdict(list)
    for record in records:
        groups[normalize_text(record.source_text)].append(record)
    sets = []
    for source in sorted(groups):
        members = groups[source]
        targets = sorted({normalize_text(r.target_text) for r in members})
        if len(targets) >= 2:
            sets.append(
                TranslationSet(
                    source_text=source,
                    member_ids=[r.id for r in members],
                    target_texts=targets,
                )
            )
    return sets


def select_ambiguous_sets(sets, records, cross_sim, target_sim, config=None):
    """Pick at most one sufficiently-different target pair per translation set.

    Walk the parallel-similarity schedule downward; at each level keep
    targets whose own source-target similarity exceeds the level, then take
    the least-similar kept pair. The first level where that pair's
    similarity drops under the target threshold wins and the level is
    recorded. Ties on minimum similarity break lexicographically.

    Both scorers must be deterministic functions of their two texts: no
    score depends on the level, so each candidate is scored once per set
    and each target pair at most once per set, whatever the schedule.
    """
    config = config or AmbiguitySelectionConfig()
    by_id = {r.id: r for r in records}
    out = []
    for tset in sets:
        # one representative record id per distinct target
        rep = {}
        for member_id in tset.member_ids:
            key = normalize_text(by_id[member_id].target_text)
            rep.setdefault(key, member_id)
        cross = {t: cross_sim(tset.source_text, t) for t in tset.target_texts}
        pair_sims = {}  # (earlier, later) target -> target_sim, for this set only
        for level in config.parallel_schedule:
            kept = [t for t in tset.target_texts if cross[t] > level]
            pairs = []
            for i, first in enumerate(kept):
                for second in kept[i + 1:]:
                    if (first, second) not in pair_sims:
                        pair_sims[first, second] = target_sim(first, second)
                    pairs.append((pair_sims[first, second], first, second))
            if not pairs:
                continue
            sim, first, second = min(pairs)
            if sim < config.target_threshold:
                out.append(AmbiguousTranslationSet(
                    source_text=tset.source_text,
                    first_target=first,
                    second_target=second,
                    first_id=rep[first],
                    second_id=rep[second],
                    parallel_threshold=level,
                    pair_similarity=sim,
                ))
                break
    return out


def flag_ambiguous_samples(records, sets):
    """Per-record 'possibly ambiguous' flag: source appears in some translation set."""
    sources = {s.source_text for s in sets}
    return {r.id: normalize_text(r.source_text) in sources for r in records}


# ---------------------------------------------------------------------------
# Crowd votes and reliability
# ---------------------------------------------------------------------------


def aggregate_votes(votes):
    """Per-task helpful decision under the 2-of-3 owner-agreement rule.

    A task is helpful iff at least two of its three votes picked exactly the
    clip-owning subtitle; 'none' and 'both' never count toward helpful.
    """
    by_task = defaultdict(list)
    for vote in votes:
        by_task[vote.task_id].append(vote)
    decisions = {}
    for task_id, task_votes in sorted(by_task.items()):
        if len(task_votes) != 3:
            raise VoteAggregationError(
                f"task {task_id}: expected exactly 3 votes, got {len(task_votes)}"
            )
        owners = {v.clip_owner for v in task_votes}
        if len(owners) != 1:
            raise VoteAggregationError(f"task {task_id}: inconsistent clip_owner across votes")
        owner = owners.pop()
        agree = sum(1 for v in task_votes if v.choice == owner)
        decisions[task_id] = agree >= 2
    return decisions


def parse_vote_file(path):
    votes = []
    with _utf8_named(path), open(path, encoding="utf-8") as f:
        header = f.readline().strip()
        if header != "task_id,clip_owner,worker_id,choice":
            raise CorpusParseError(f"{path}:1: bad vote header {header!r}")
        for lineno, line in enumerate(f, 2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise CorpusParseError(f"{path}:{lineno}: expected 4 comma-separated fields")
            try:
                votes.append(VoteRecord(*parts))
            except ValueError as exc:
                raise CorpusParseError(f"{path}:{lineno}: {exc}") from None
    return votes


def krippendorff_alpha(ratings_by_unit):
    """Nominal-data alpha via the coincidence matrix: 1 - D_o / D_e.

    ``ratings_by_unit`` maps unit id -> list of category labels. Units with
    fewer than two ratings are ignored; if none remain the statistic is
    undefined.
    """
    pairable = {u: vals for u, vals in ratings_by_unit.items() if len(vals) >= 2}
    if not pairable:
        raise ReliabilityError("alpha undefined: every unit has fewer than two ratings")
    coincidence = Counter()
    for vals in pairable.values():
        m = len(vals)
        for i, a in enumerate(vals):
            for j, b in enumerate(vals):
                if i != j:
                    coincidence[(a, b)] += 1.0 / (m - 1)
    n = sum(coincidence.values())
    marginals = Counter()
    for (a, _b), c in coincidence.items():
        marginals[a] += c
    observed = sum(c for (a, b), c in coincidence.items() if a != b) / n
    expected = sum(
        marginals[a] * marginals[b]
        for a in marginals for b in marginals if a != b
    ) / (n * (n - 1))
    if expected == 0.0:
        return 1.0  # everyone used a single category: perfect agreement
    return 1.0 - observed / expected


# ---------------------------------------------------------------------------
# Splits, vocabulary, context
# ---------------------------------------------------------------------------


def build_splits(records, helpful_by_id, seed=0, evaluation_cap=None):
    """Assign each record to train/validation/test.

    Helpful records form the evaluation pool (optionally capped by seeded
    sampling), shuffled by seed and halved; validation takes the odd extra.
    Everything else trains.
    """
    if evaluation_cap is not None and evaluation_cap < 0:
        raise ValueError(f"evaluation_cap must be >= 0, got {evaluation_cap}")
    rng = np.random.default_rng(seed)
    pool = [r.id for r in records if helpful_by_id.get(r.id, False)]
    if evaluation_cap is not None and len(pool) > evaluation_cap:
        keep = rng.choice(len(pool), size=evaluation_cap, replace=False)
        pool = [pool[i] for i in sorted(keep)]
    order = rng.permutation(len(pool))
    shuffled = [pool[i] for i in order]
    half = (len(shuffled) + 1) // 2
    validation = set(shuffled[:half])
    test = set(shuffled[half:])
    assignment = {}
    for r in records:
        if r.id in validation:
            assignment[r.id] = "validation"
        elif r.id in test:
            assignment[r.id] = "test"
        else:
            assignment[r.id] = "train"
    return assignment


def build_vocabulary(records, side, min_count=3):
    """Whitespace-token vocabulary with reserved ids; rare tokens map to unk.

    A reserved token found in the text is not counted as a word: it keeps its reserved id.

    Kept tokens are ordered by descending frequency, ties alphabetically.
    """
    if side not in ("source", "target"):
        raise ValueError("side must be 'source' or 'target'")
    counts = Counter()
    for r in records:
        text = r.source_text if side == "source" else r.target_text
        counts.update(text.split())
    kept = sorted(
        (tok for tok, c in counts.items() if c >= min_count and tok not in RESERVED_TOKENS),
        key=lambda tok: (-counts[tok], tok),
    )
    return Vocabulary(list(RESERVED_TOKENS) + kept)


def build_context_corpus(records):
    """Widen each source with its two in-video neighbors on both sides.

    Neighbor subtitles are joined with a separator token; missing neighbors
    at video boundaries are simply omitted. Targets are untouched.
    """
    by_video = defaultdict(list)
    for r in records:
        by_video[r.video_id].append(r)
    position = {}
    for siblings in by_video.values():
        for i, s in enumerate(siblings):
            position[s.id] = i
    out = []
    for r in records:
        siblings = by_video[r.video_id]
        pos = position[r.id]
        window = siblings[max(0, pos - 2):pos + 3]
        new_source = f" {CONTEXT_SEPARATOR} ".join(s.source_text for s in window)
        out.append(
            SubtitleRecord(
                id=r.id,
                source_text=new_source,
                target_text=r.target_text,
                start_ms=r.start_ms,
                end_ms=r.end_ms,
                video_id=r.video_id,
                split_hint=r.split_hint,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Similarity scorers
# ---------------------------------------------------------------------------

_BOUNDARY = ""  # private-use padding so edge n-grams stay distinct


def _char_trigrams(text):
    padded = _BOUNDARY * 2 + text + _BOUNDARY * 2
    return Counter(zip(padded, padded[1:], padded[2:]))


def baseline_similarity(a, b):
    """Cosine similarity of boundary-padded character 3-gram counts, in [0, 1].

    Both profiles are rebuilt on every call, although ambiguous selection
    scores some texts many times. Caching them does not pay: on a
    20k-record corpus whose selection scores 9000 distinct texts, a cache
    held 54 MB (6 KB per Counter) to save 0.15 s of 0.32 s.
    """
    if not a or not b:
        raise ValueError("baseline_similarity needs non-empty strings")
    ca, cb = _char_trigrams(a), _char_trigrams(b)
    dot = sum(ca[g] * cb[g] for g in ca.keys() & cb.keys())
    norm = math.sqrt(sum(v * v for v in ca.values())) * math.sqrt(sum(v * v for v in cb.values()))
    return dot / norm


class MatrixScorer:
    """Similarity lookup backed by a precomputed n-by-n matrix.

    Rows and columns are indexed by record position in the corpus file; a
    text maps to the first position carrying it. ``row_side``/``col_side``
    choose which text field keys each axis.
    """

    def __init__(self, records, matrix, row_side, col_side):
        matrix = np.asarray(matrix, dtype=np.float64)
        n = len(records)
        if matrix.shape != (n, n):
            raise ValueError(f"similarity matrix must be {n}x{n}, got {matrix.shape}")
        self.matrix = matrix
        self._row_index = self._index(records, row_side)
        self._col_index = self._index(records, col_side)

    @staticmethod
    def _index(records, side):
        index = {}
        for pos, r in enumerate(records):
            key = normalize_text(r.source_text if side == "source" else r.target_text)
            index.setdefault(key, pos)
        return index

    def __call__(self, a, b):
        try:
            i = self._row_index[normalize_text(a)]
            j = self._col_index[normalize_text(b)]
        except KeyError as exc:
            raise KeyError(f"text not present in the scored corpus: {exc.args[0]!r}") from None
        return float(self.matrix[i, j])


def load_similarity_matrix(path):
    """Read the 'SIM v1 <n>' header then n*n space-separated reals, row-major."""
    with _utf8_named(path), open(path, encoding="utf-8") as f:
        header = f.readline().split()
        if len(header) != 3 or header[:2] != ["SIM", "v1"] or not header[2].isdecimal():
            raise CorpusParseError(
                f"{path}:1: expected header 'SIM v1 <n>' with n >= 0, got {' '.join(header)!r}"
            )
        n = int(header[2])
        values = f.read().split()
    if len(values) != n * n:
        raise CorpusParseError(f"{path}: expected {n * n} values, found {len(values)}")
    try:
        return np.array(values, dtype=np.float64).reshape(n, n)
    except ValueError as exc:
        raise CorpusParseError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Video feature files
# ---------------------------------------------------------------------------

_FEATURE_MAGIC = b"EVAF"


def save_video_features(path, features):
    """Write one clip's frame-feature matrix as 32-bit floats."""
    arr = np.ascontiguousarray(features, dtype="<f4")
    if arr.ndim != 2:
        raise ValueError(f"features must be (frames, dim), got shape {arr.shape}")
    with open(path, "wb") as f:
        f.write(_FEATURE_MAGIC)
        f.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
        f.write(arr.tobytes(order="C"))


def load_video_features(path):
    """Read a feature file; values are upcast to float64 and must be finite."""
    with open(path, "rb") as f:
        if f.read(4) != _FEATURE_MAGIC:
            raise CorpusParseError(f"{path}: bad magic, not a video feature file")
        header = read_exact(f, 8, path, CorpusParseError, "feature header")
        frames, dim = struct.unpack("<II", header)
        if frames == 0 or dim == 0:
            raise CorpusParseError(f"{path}: empty feature header: {frames} frames of dim {dim}")
        raw = read_exact(f, 4 * frames * dim, path, CorpusParseError, "feature payload")
        if f.peek(1):
            raise CorpusParseError(f"{path}: trailing bytes after the {frames}x{dim} feature payload")
    values = np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(frames, dim)
    if not all_finite(values):
        raise CorpusParseError(f"{path}: non-finite value in the {frames}x{dim} feature payload")
    return values
