"""Span and counter tracing for the benchmark's traced run.

The library is measured from outside.  ``Tracer.install`` replaces public
functions and methods of ``scheme_spectra`` with wrappers, at every loaded
``scheme_spectra`` module that holds a reference to them (the package
re-exports, ``bounds.kraw``, ``schemes.kraw``, ``krawtchouk.binom``, ...),
and ``uninstall`` puts the originals back.  Nothing in the library changes.

A wrapper either records a span (name, start, end, parent span, job id) or
only bumps a call counter; the counted functions (``binom``, ``multinom``,
``CycInt.__mul__``) run hundreds of thousands of times per job, so a span
each would swamp what it measures.  Generators are timed around each
``next()``.  Spans and counters stay in memory; ``summary`` turns them into
per-layer self times at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import Counter, defaultdict

# (defining module, attribute, how calls are traced)
FUNCTIONS = (
    ("exactnum", "binom", "count"),
    ("exactnum", "multinom", "count"),
    ("groups", "enumerate_compositions", "generator"),
    ("groups", "enumerate_shell", "generator"),
    ("krawtchouk", "kraw", "span"),
    ("krawtchouk", "gen_kraw", "span"),
    ("krawtchouk", "first_nonpositive", "span"),
    ("schemes", "hamming_spectrum", "span"),
    ("schemes", "composition_spectrum", "span"),
    ("schemes", "min_eigenvalue", "span"),
    ("schemes", "hoffman_bound", "span"),
    ("bounds", "bound_report", "span"),
    ("bounds", "lp_two_support", "span"),
    ("bounds", "check_lp_solution", "span"),
    ("bounds", "conjecture_probe", "span"),
    ("bounds", "build_representation", "span"),
    ("bounds", "hadamard_representation", "span"),
    ("bounds", "verify_representation", "span"),
)
# (defining module, class, method, metric name, how calls are traced)
METHODS = (
    ("exactnum", "CycInt", "__mul__", "exactnum.CycInt.mul", "count"),
    ("exactnum", "CycInt", "__rmul__", "exactnum.CycInt.mul", "count"),
    ("exactnum", "CycInt", "embed", "exactnum.CycInt.embed", "span"),
    ("schemes", "Spectrum", "to_json", "schemes.Spectrum.to_json", "span"),
    ("bounds", "Representation", "write_csv", "bounds.Representation.write_csv", "span"),
)


class Tracer:
    """Spans and counters recorded while ``active`` is true."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, job id]
        self.counters: Counter = Counter()
        self.active = False
        self.job_id: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job_id])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> float:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        return span[2] - span[1]

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name: str, fn):
        before, after = _HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.counters[name + ".calls"] += 1
            state = before(args, kwargs) if before is not None else None
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.end(idx)
            if after is not None:
                after(self.counters, args, kwargs, result, elapsed, state)
            return result

        return wrapper

    def _generator(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            if not self.active:
                return it
            self.counters[name + ".calls"] += 1
            return self._timed_iter(name, it)

        return wrapper

    def _timed_iter(self, name: str, it):
        items = name + ".items"
        while True:
            idx = self.begin(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.end(idx)
            self.counters[items] += 1
            yield item

    def _counted(self, name: str, fn):
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.counters[calls] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall ----------------------------------------------

    def _wrap(self, kind: str, name: str, fn):
        return {"span": self._spanned, "generator": self._generator, "count": self._counted}[
            kind
        ](name, fn)

    def install(self) -> None:
        """Wrap every traced name at every loaded scheme_spectra module that
        holds it; a name the library no longer has is skipped."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "scheme_spectra" or name.startswith("scheme_spectra."))
        }
        for modname, attr, kind in FUNCTIONS:
            original = getattr(modules.get("scheme_spectra." + modname), attr, None)
            if original is None:
                continue
            replacement = self._wrap(kind, f"{modname}.{attr}", original)
            for mod in modules.values():
                for site, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, site, value))
                        setattr(mod, site, replacement)
        for modname, cls_name, meth, name, kind in METHODS:
            cls = getattr(modules.get("scheme_spectra." + modname), cls_name, None)
            original = vars(cls).get(meth) if cls is not None else None
            if original is None:
                continue
            self._undo.append((cls, meth, original))
            setattr(cls, meth, self._wrap(kind, name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def export(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}

    def merge(self, exported: dict) -> None:
        """Add the spans and counters another process exported, under the
        current job id and span; the other clock only enters as durations."""
        base = len(self.spans)
        top = self._stack[-1] if self._stack else -1
        for name, start, end, parent, _ in exported["spans"]:
            parent = parent + base if parent >= 0 else top
            self.spans.append([name, start, end, parent, self.job_id])
        self.counters.update(exported["counters"])

    def summary(self) -> dict:
        """Counters plus ``<name>.self_s`` and ``<name>.wall_s`` per span name."""
        out = dict(self.counters)
        out.update(span_summary(self.spans))
        return out


def span_summary(spans: list[list]) -> dict:
    """Self time (duration minus the time covered by direct child spans) and
    inclusive wall time, summed per span name."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name + ".self_s"] += (end - start) - child[i]
        out[name + ".wall_s"] += end - start
    return dict(out)


# -- per-call hooks: counters computed from the call's inputs --------------


def _embed_after(counters, args, kwargs, result, elapsed, state):
    bits = kwargs.get("bits", args[1] if len(args) > 1 else None)
    if bits is not None and bits > _default_bits(type(args[0])):
        counters["exactnum.CycInt.embed.escalations"] += 1


@functools.lru_cache(maxsize=None)
def _default_bits(cls) -> int:
    """The ``bits`` default of ``embed``: the precision every call starts at."""
    return inspect.signature(cls.embed).parameters["bits"].default


def _hamming_after(counters, args, kwargs, result, elapsed, state):
    spec = args[0] if args else kwargs["spec"]
    counters["schemes.shells"] += spec.n + 1
    counters["schemes.hamming_shells"] += spec.n + 1


def _composition_after(counters, args, kwargs, result, elapsed, state):
    spec = args[0] if args else kwargs["spec"]
    q = spec.group.order
    counters["schemes.shells"] += math.comb(spec.n + q - 1, q - 1)


def _verify_after(counters, args, kwargs, result, elapsed, state):
    # Cells compared = generators x rows x cols, computed from the inputs for
    # scans that ran to completion; a sampled scan compares sample x cols.
    rep, spec = args[0], args[1] if len(args) > 1 else kwargs["spec"]
    sample = kwargs.get("sample", args[2] if len(args) > 2 else None)
    if result is not True:
        return
    if sample is not None:
        cells = sample * rep.cols
    else:
        cells = _generators(spec) * rep.rows * rep.cols
    counters["bounds.verify_representation.cells"] += cells
    counters["bounds.verify_representation.counted_s"] += elapsed


def _generators(spec) -> int:
    if hasattr(spec, "d"):
        return (spec.q - 1) ** spec.d * math.comb(spec.n, spec.d)
    parts = tuple(spec.dcomp)
    out = math.factorial(spec.n)
    for c in parts:
        out //= math.factorial(c)
    return out


def _csv_target(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["fp"]


def _write_csv_before(args, kwargs):
    fp = _csv_target(args, kwargs)
    return fp.tell() if fp.seekable() else None


def _write_csv_after(counters, args, kwargs, result, elapsed, start):
    # Text written to a seekable target; every CSV character is ASCII, so
    # the position difference is the byte count.
    if start is not None:
        counters["bounds.Representation.write_csv.bytes"] += (
            _csv_target(args, kwargs).tell() - start
        )


# span name -> (hook before the call, hook after it)
_HOOKS = {
    "exactnum.CycInt.embed": (None, _embed_after),
    "schemes.hamming_spectrum": (None, _hamming_after),
    "schemes.composition_spectrum": (None, _composition_after),
    "bounds.verify_representation": (None, _verify_after),
    "bounds.Representation.write_csv": (_write_csv_before, _write_csv_after),
}
