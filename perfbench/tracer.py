"""Layer tracer that wraps safa's public functions from outside the program.

Every public module-level function of ``safa.tensor``, ``model``,
``training``, ``evaluation``, ``corpus`` and ``cli`` is replaced, while
tracing is on, by a timing wrapper. The wrapper is installed under every
name a caller looks it up by: ``safa.cli`` imports corpus functions by
name and ``model.forward_full`` resolves ``encode_text`` through module
globals, so each module attribute bound to the original function object is
patched. Tensor primitives additionally wrap the ``backward`` callable they
record on ``Tape.entries``, so backward time is attributed per primitive.

A wrapper keeps a stack of child time, so each name accumulates calls,
inclusive time and self time (inclusive minus traced children). Spans
``(id, parent, name, start, end, op)`` stay in memory up to a cap and are
written when the run ends; aggregates are kept for every call.
"""

import inspect
import os
import time
from collections import defaultdict

LAYERS = ("tensor", "model", "training", "evaluation", "corpus", "cli")

# Primitives reported one by one; the rest of the tape primitives are summed
# under ``tensor.other``.
REPORTED_PRIMITIVES = (
    "matmul", "add", "mul", "softmax", "log_softmax", "layer_norm", "transpose",
    "reshape", "masked_fill", "embedding", "dropout", "sigmoid", "take_index",
)
OTHER_PRIMITIVES = ("sub", "scale", "log", "relu", "concat", "reduce_sum", "reduce_mean")
FUSE_FUNCTIONS = ("encode_text", "project_video", "selective_attention", "gated_fusion")

SPAN_CAP = 50_000


class Tracer:
    """Aggregated per-function timings plus a capped in-memory span list."""

    def __init__(self, modules):
        self.modules = modules            # layer name -> imported safa module
        self.primitives = set(REPORTED_PRIMITIVES + OTHER_PRIMITIVES)
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])   # name -> [calls, incl s, self s]
        self.counts = defaultdict(float)
        self.spans = []
        self.dropped_spans = 0
        self.root_s = 0.0                 # time under some top-level span
        self.op = 0                       # identifier shared by the spans of one operation
        self._next_id = 0
        self._ids = [-1]
        self._names = [""]
        self._child = [0.0]
        self._active = defaultdict(int)
        self._patches = self._build_patches()
        self.installed = False

    # -- installation -------------------------------------------------------

    def _build_patches(self):
        wrappers = {}
        for layer, module in self.modules.items():
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrappers[fn] = self._wrapper_for(layer, attr, fn)
        cli = self.modules["cli"]
        wrappers[cli._digest] = self._digest_wrapper(cli._digest)
        patches = []
        for module in self.modules.values():
            for attr, value in vars(module).items():
                if inspect.isfunction(value) and value in wrappers:
                    patches.append((module, attr, value, wrappers[value]))
        tape = self.modules["tensor"].Tape
        patches.append((tape, "backward", tape.backward,
                        self._timed("tensor.Tape.backward", tape.backward)))
        return patches

    def install(self):
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self.installed = True

    def uninstall(self):
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)
        self.installed = False

    # -- wrappers -------------------------------------------------------------

    def _timed(self, name, fn, after=None):
        """Wrap ``fn`` so each call records a span and updates ``stats[name]``.

        ``after(args, kwargs, result, seconds)`` runs on normal return.
        """
        tracer = self
        stat = self.stats[name]
        layer = name.split(".", 1)[0]
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            t = tracer
            sid = t._next_id
            t._next_id = sid + 1
            parent = t._ids[-1]
            t._ids.append(sid)
            t._names.append(name)
            t._child.append(0.0)
            t._active[name] += 1
            start = perf()
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = perf()
                dur = end - start
                child = t._child.pop()
                t._ids.pop()
                t._names.pop()
                t._active[name] -= 1
                t._child[-1] += dur
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - child
                if parent < 0:
                    t.root_s += dur
                if raised and layer == "corpus" and not t._names[-1].startswith("corpus."):
                    t.counts["corpus.rejected_inputs"] += 1
                if len(t.spans) < SPAN_CAP:
                    t.spans.append((sid, parent, name, start, end, t.op))
                else:
                    t.dropped_spans += 1
            if after is not None:
                after(args, kwargs, result, dur)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrapper_for(self, layer, attr, fn):
        name = f"{layer}.{attr}"
        if layer == "tensor" and attr in self.primitives:
            return self._primitive_wrapper(attr, fn)
        if name == "cli.main":
            return self._cli_main_wrapper(fn)
        if name == "model.decode":
            return self._timed(name, fn, after=self._count_decoder_positions)
        if layer == "model" and attr in FUSE_FUNCTIONS:
            return self._timed(name, fn, after=self._count_fuse_time)
        return self._timed(name, fn)

    def _primitive_wrapper(self, prim, fn):
        tape_cls = self.modules["tensor"].Tape
        timed = self._timed(f"tensor.{prim}", fn)
        bwd_name = f"tensor.{prim}.backward"
        counts = self.counts
        tracer = self
        is_matmul = prim == "matmul"

        def wrapper(*args, **kwargs):
            tape = tape_cls.current()
            before = len(tape.entries) if tape is not None else -1
            out = timed(*args, **kwargs)
            if is_matmul:
                flops, nbytes = _matmul_cost(args[0], args[1], out)
                counts["tensor.matmul.flops"] += flops
                counts["tensor.matmul.bytes"] += nbytes
            if tape is not None and len(tape.entries) == before + 1:
                entry = tape.entries[-1]
                if entry.backward is not None:
                    entry.backward = tracer._timed(
                        bwd_name, entry.backward,
                        after=_matmul_backward_cost(counts, args, out) if is_matmul else None,
                    )
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _cli_main_wrapper(self, fn):
        by_stage = {}
        counts = self.counts

        def wrapper(argv=None):
            words = list(argv or ["?"])
            stage = words[1] if words[0] == "pipeline" and len(words) > 1 else words[0]
            if stage not in by_stage:
                by_stage[stage] = self._timed(f"cli.main.{stage}", fn)
            code = by_stage[stage](argv)
            if code != 0:
                counts["cli.exit_nonzero"] += 1
            return code

        wrapper.__wrapped__ = fn
        return wrapper

    def _digest_wrapper(self, fn):
        counts = self.counts

        def count(args, kwargs, result, seconds):
            counts["cli.digest_bytes"] += os.path.getsize(args[0])

        return self._timed("cli._digest", fn, after=count)

    def _count_decoder_positions(self, args, kwargs, result, seconds):
        if self._active["evaluation.beam_decode"]:
            tgt_input = args[1] if len(args) > 1 else kwargs["tgt_input"]
            rows, width = tgt_input.shape
            self.counts["evaluation.decoder_positions"] += rows * width
            self.counts["evaluation.new_positions"] += rows

    def _count_fuse_time(self, args, kwargs, result, seconds):
        if self._active["evaluation.beam_decode"]:
            self.counts["evaluation.fuse_s"] += seconds

    def span_record(self):
        return {
            "fields": ["id", "parent", "name", "start_s", "end_s", "op"],
            "spans": self.spans,
            "dropped": self.dropped_spans,
        }


def _shape(x):
    data = getattr(x, "data", x)
    return tuple(getattr(data, "shape", ()))


def _size(shape):
    n = 1
    for d in shape:
        n *= d
    return n


def _matmul_cost(a, b, out):
    """Forward flops and bytes of one matmul, computed from the shapes."""
    sa, sb, so = _shape(a), _shape(b), _shape(out)
    k = sa[-1]
    flops = 2 * _size(so) * k
    return flops, 8 * (_size(sa) + _size(sb) + _size(so))


def _matmul_backward_cost(counts, args, out):
    """After-hook for a matmul backward: two products, g @ b^T and a^T @ g."""
    sa, sb, so = _shape(args[0]), _shape(args[1]), _shape(out)
    batch = _size(so[:-2])
    m, k, n = sa[-2], sa[-1], sb[-1]
    ga, gb = batch * m * k, batch * k * n
    flops = 2 * batch * m * k * n * 2
    nbytes = 8 * (_size(so) + _size(sa) + _size(sb) + ga + gb)

    def after(_args, _kwargs, _result, _seconds):
        counts["tensor.matmul.flops"] += flops
        counts["tensor.matmul.bytes"] += nbytes

    return after
