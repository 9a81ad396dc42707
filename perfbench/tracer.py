"""In-process spans and counts around lcdring's public functions.

The wrappers live here, outside the package.  ``Tracer.install`` replaces
every public module-level function of each lcdring module, wherever a
module holds a reference to it, plus a list of public methods;
``uninstall`` puts the originals back, so untraced runs never carry a
wrapper.  A tracer is installed twice, for two passes over the same jobs:

* timing pass: each call becomes a span (id, name, start, end, parent id,
  job id).  Spans stay in memory and ``write`` stores them at the end.
  Self time is a span's duration minus the time of its child spans.
* counting pass: the calls too hot for spans (``GF`` arithmetic, and
  ``Matrix`` and ``RingElement`` construction) are counted, and only the
  first arithmetic call on each fresh ``GF``, where tables get built, is
  timed.  Keeping these counters out of the timing pass keeps their cost
  out of every self time.

``oracle.codewords`` returns a generator before any word exists, so its
span is timed at the consumer: each ``next`` is charged to it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import math
import pkgutil
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Iterator

GF_OPS = ("add", "sub", "mul", "inv", "neg", "frobenius", "pow")

# Public methods given spans, by module; the span is named module.method.
METHOD_SPANS = {
    "fqcode": ("FqCode", ("from_rows", "galois_dual", "hull_dim", "lcd_status", "is_lcd",
                          "is_self_orthogonal", "is_self_dual", "min_dist", "scale")),
    "rcode": ("RCode", ("from_components", "from_generators", "galois_dual", "lcd_status",
                        "is_lcd", "is_self_orthogonal", "is_self_dual", "lee_min_dist",
                        "params", "gray_image", "scale")),
    "linalg": ("Matrix", ("from_rows", "transpose", "map_entries", "vstack", "permute_cols",
                          "scale_cols", "delete_rows_cols", "__matmul__")),
}
# Classes whose constructions are counted in the counting pass.
COUNTED_NEW = {"linalg.matrix.new": ("linalg", "Matrix"), "ring.element.new": ("ring", "RingElement")}

LAYER_SPANS = {
    "linalg": ("rref", "det", "nullspace_basis", "gram", "matmul", "minor_det", "delete_rows_cols"),
    "fqcode": ("galois_dual", "hull_dim", "lcd_status", "is_self_orthogonal", "min_dist"),
}


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) for every per-layer metric, in report order."""
    out = [(f"gf.{op}.calls", "count") for op in GF_OPS]
    out += [("gf.init_s", "s"), ("gf.first_use_s", "s"), ("linalg.matrix.new", "count")]
    for layer, names in LAYER_SPANS.items():
        for n in names:
            out += [(f"{layer}.{n}.calls", "count"), (f"{layer}.{n}.self_s", "s")]
    out += [("fqcode.min_dist.words", "count"), ("fqcode.min_dist.us_per_word", "us")]
    out += [(f"rcode.{n}.self_s", "s") for n in ("params", "galois_dual", "gray_image")]
    out += [
        ("construct.minor_search.calls", "count"),
        ("construct.minor_search.self_s", "s"),
        ("construct.minor_search.sets_scanned", "count"),
        ("construct.lemma_det_check.self_s", "s"),
        ("construct.ring_lcd_equivalent.self_s", "s"),
        ("oracle.words", "count"),
    ]
    out += [(f"oracle.{n}.self_s", "s") for n in ("min_distance", "hull_dim", "is_dual_pair")]
    out += [("ring.element.new", "count")]
    out += [(f"{n}.self_s", "s") for n in ("codefile.parse_code", "codefile.dumps", "cli.main")]
    return out


def sets_scanned(m: int, t: int, r_set: tuple[int, ...]) -> int:
    """Deletion sets ``minor_search`` evaluated before returning this certificate.

    All sets of size <= t, then sets of size t + 1 in lexicographic order
    up to and including ``r_set``.
    """
    s = t + 1
    before = sum(math.comb(m, w) for w in range(s))
    rank, prev = 0, -1
    for i, c in enumerate(r_set):
        for v in range(prev + 1, c):
            rank += math.comb(m - 1 - v, s - 1 - i)
        prev = c
    return before + rank + 1


def min_dist_words(code: Any) -> int:
    """Messages ``FqCode.min_dist`` enumerates on an uncached call.

    The generator is in RREF, so a weight-1 codeword is a weight-1 row r,
    first met at message q^r, where the scan stops; otherwise all q^k - 1
    nonzero messages are visited.
    """
    q = code.field.q
    for r in range(code.k):
        if sum(1 for v in code.gen.row(r) if v) == 1:
            return q**r
    return q**code.k - 1


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # six numbers per span: id, name id, start, end, parent id, job id
        self.spans = array("d")
        self._calls: list[int] = []  # by name id
        self._self_s: list[float] = []  # by name id
        self.counts: dict[str, list[int]] = defaultdict(lambda: [0])
        self.timers: dict[str, float] = defaultdict(float)
        self.job = -1
        self._ids = itertools.count()
        self._stack: list[list] = []  # open spans as [span id, seconds spent in children]
        self._patches: list[tuple[Any, str, Any]] = []
        self._fresh: set[int] = set()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._calls.append(0)
            self._self_s.append(0.0)
        return self._name_ids[name]

    def calls(self, name: str) -> int:
        nid = self._name_ids.get(name)
        return 0 if nid is None else self._calls[nid]

    def self_s(self, name: str) -> float:
        nid = self._name_ids.get(name)
        return 0.0 if nid is None else self._self_s[nid]

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        nid = self._name_id(name)
        tracer, stack, ids, spans = self, self._stack, self._ids, self.spans
        calls, self_s, clock = self._calls, self._self_s, time.perf_counter

        def wrapper(*args, **kwargs):
            after = hook(args, kwargs) if hook else None
            parent = stack[-1][0] if stack else -1
            frame = [next(ids), 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                self_s[nid] += dur - frame[1]
                calls[nid] += 1
                spans.extend((frame[0], nid, t0, t1, parent, tracer.job))
            if after:
                after(result)
            return result

        return wrapper

    def _method_span(self, name: str, raw: Any) -> Any:
        if isinstance(raw, classmethod):
            return classmethod(self._span(name, raw.__func__))
        return self._span(name, raw, self._hook_for(name))

    def _generator(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            return _TimedIter(tracer, name, fn(*args, **kwargs))

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        cell = self.counts[name]

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _gf_op(self, op: str, fn: Callable) -> Callable:
        cell, fresh, tracer = self.counts[f"gf.{op}.calls"], self._fresh, self

        def wrapper(gf, *args):
            cell[0] += 1
            if fresh and id(gf) in fresh:
                fresh.discard(id(gf))
                t0 = time.perf_counter()
                try:
                    return fn(gf, *args)
                finally:
                    tracer.timers["gf.first_use_s"] += time.perf_counter() - t0
            return fn(gf, *args)

        return wrapper

    def _gf_init(self, fn: Callable) -> Callable:
        fresh, tracer = self._fresh, self

        def wrapper(gf, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(gf, *args, **kwargs)
            finally:
                tracer.timers["gf.init_s"] += time.perf_counter() - t0
            fresh.add(id(gf))

        return wrapper

    def _hook_for(self, name: str) -> Callable | None:
        """A call hook takes the call's arguments and returns what to do with its result."""
        if name == "fqcode.min_dist":
            words_cell = self.counts["fqcode.min_dist.words"]

            def min_dist_hook(args, kwargs):
                code = args[0]
                if getattr(code, "_dist", None) is not None or code.k == 0:
                    return None  # cached, or refused before any enumeration
                words = min_dist_words(code)

                def after(result):
                    words_cell[0] += words

                return after

            return min_dist_hook
        if name == "construct.minor_search":
            sets_cell = self.counts["construct.minor_search.sets_scanned"]

            def minor_search_hook(args, kwargs):
                m = args[0].nrows

                def after(cert):
                    sets_cell[0] += sets_scanned(m, cert.t, cert.r_set)

                return after

            return minor_search_hook
        return None

    # -- install / uninstall ----------------------------------------------------

    def _patch(self, owner: Any, attr: str, wrap: Callable[[Any], Any]) -> None:
        """Replace owner.attr by wrap(original); a name the program no longer has is skipped."""
        orig = owner.__dict__.get(attr)
        if orig is not None:
            self._patches.append((owner, attr, orig))
            setattr(owner, attr, wrap(orig))

    def install(self, counting: bool = False) -> None:
        """Wrap lcdring for the timing pass, or for the counting pass when ``counting``."""
        import lcdring

        mods = {"lcdring": lcdring}
        for info in pkgutil.iter_modules(lcdring.__path__):
            mods[info.name] = importlib.import_module(f"lcdring.{info.name}")
        if counting:
            for name, (short, cls_name) in COUNTED_NEW.items():
                self._patch(getattr(mods[short], cls_name), "__init__",
                            lambda fn, name=name: self._counted(name, fn))
            gf_cls = mods["gf"].GF
            self._patch(gf_cls, "__init__", self._gf_init)
            for op in GF_OPS:
                self._patch(gf_cls, op, lambda fn, op=op: self._gf_op(op, fn))
            return
        targets: dict[int, Callable] = {}
        for short, mod in mods.items():
            if short == "lcdring":
                continue
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if name == "oracle.codewords":
                    targets[id(fn)] = self._generator(name, fn)
                else:
                    targets[id(fn)] = self._span(name, fn, self._hook_for(name))
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and id(val) in targets:
                    self._patch(mod, attr, lambda fn: targets[id(fn)])
        for short, (cls_name, methods) in METHOD_SPANS.items():
            cls = getattr(mods[short], cls_name)
            for meth in methods:
                self._patch(cls, meth, functools.partial(self._method_span, f"{short}.{meth.strip('_')}"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)
        self._fresh.clear()

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric, zero where the layer did no work."""
        out: dict[str, float] = {}
        for metric, _ in per_layer_names():
            key = metric.rsplit(".", 1)[0]
            if metric.endswith(".calls") and not metric.startswith("gf."):
                out[metric] = self.calls(key)
            elif metric.endswith(".self_s"):
                out[metric] = self.self_s(key)
            elif metric == "fqcode.min_dist.us_per_word":
                words = self.counts["fqcode.min_dist.words"][0]
                out[metric] = 1e6 * self.self_s("fqcode.min_dist") / words if words else 0.0
            elif metric in self.timers:
                out[metric] = self.timers[metric]
            else:
                out[metric] = self.counts[metric][0] if metric in self.counts else 0
        return out

    def total_s(self, name: str) -> float:
        """Summed duration of the recorded spans called ``name``, children included."""
        nid = self._name_ids.get(name)
        sp = self.spans
        return sum(sp[i + 3] - sp[i + 2] for i in range(0, len(sp), 6) if sp[i + 1] == nid)

    def write(self, stem: str) -> None:
        """Spans to STEM.bin as native-endian doubles, six per span; an index to STEM.json."""
        with open(stem + ".bin", "wb") as fh:
            self.spans.tofile(fh)
        index = {
            "spans": len(self.spans) // 6,
            "fields": ["id", "name", "start", "end", "parent", "job"],
            "names": self.names,
            "calls": dict(zip(self.names, self._calls)),
            "self_s": dict(zip(self.names, self._self_s)),
            "counts": {k: v[0] for k, v in self.counts.items()},
            "timers": dict(self.timers),
        }
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(index, fh, indent=1)


class _TimedIter:
    """A generator proxy that charges each ``next`` to one span, recorded when it is exhausted."""

    def __init__(self, tracer: Tracer, name: str, it: Iterator):
        self.tracer, self.it = tracer, it
        self.nid = tracer._name_id(name)
        self.words = tracer.counts["oracle.words"]
        self.parent = tracer._stack[-1][0] if tracer._stack else -1
        self.sid = next(tracer._ids)
        self.first = None

    def __iter__(self) -> "_TimedIter":
        return self

    def __next__(self):
        tr, stack = self.tracer, self.tracer._stack
        frame = [self.sid, 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        if self.first is None:
            self.first = t0
        try:
            item = next(self.it)
        except StopIteration:
            tr._calls[self.nid] += 1
            tr.spans.extend((self.sid, self.nid, self.first, time.perf_counter(), self.parent, tr.job))
            raise
        finally:
            t1 = time.perf_counter()
            stack.pop()
            if stack:
                stack[-1][1] += t1 - t0
            tr._self_s[self.nid] += t1 - t0 - frame[1]
        self.words[0] += 1
        return item
