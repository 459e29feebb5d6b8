"""Layer-boundary tracer for the gipsp benchmark.

The tracer replaces module attributes (and a few class attributes) with
wrappers that record one span per call: name, start, end, parent span and
op id.  Because the program's modules look up imported names in their own
namespace at call time, wrapping ``gipsp.cli.wigner_gauge_stratonovich``
catches every call the CLI makes into ``phase_space`` without touching a
program file.  Spans stay in memory; metrics are derived after the run.

Wrappers exist only between :meth:`Tracer.install` and :meth:`Tracer.restore`
(use :meth:`Tracer.active`, which restores in ``finally``).  Input
fingerprints (for ``unique_ratio``) are computed only for the names listed
in ``fingerprinted`` and only while the wrappers are installed.
"""
from __future__ import annotations

import contextlib
import hashlib
import time
import types
from dataclasses import dataclass, field

import numpy as np

_MARK = "__perfbench_original__"


@dataclass
class Binding:
    """One attribute that is replaced by a wrapper while tracing."""

    owner: object          # module or class holding the attribute
    attr: str
    span: str              # span name, "<module>.<function>"
    original: object = None

    def current(self):
        """The bound object; for a class, the raw attribute (a classmethod stays one)."""
        if isinstance(self.owner, type):
            return vars(self.owner)[self.attr]
        return getattr(self.owner, self.attr)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int            # index into Tracer.spans, -1 for a top-level call
    op: int
    bytes: int = 0
    error: bool = False
    fingerprint: str | None = None
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


def discover(modules: dict[str, types.ModuleType]) -> list[Binding]:
    """Public functions of the given modules, at every binding among them.

    ``modules`` maps a short layer name to its module.  A function defined in
    one of these modules is wrapped both where it is defined and in every
    other listed module that imports it, under one span name
    ``<defining layer>.<function>``.  Private names are left alone.
    """
    by_module = {mod.__name__: short for short, mod in modules.items()}
    out = []
    for mod in modules.values():
        for name, obj in sorted(vars(mod).items()):
            if name.startswith("_") or not isinstance(obj, types.FunctionType):
                continue
            home = by_module.get(obj.__module__)
            if home is None:
                continue
            out.append(Binding(mod, name, f"{home}.{obj.__name__}"))
    return out


def _array_bytes(obj, depth: int = 0) -> int:
    """Bytes of the arrays an argument or result carries (computed, not measured)."""
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if depth > 2:
        return 0
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(x, depth + 1) for x in obj)
    vals = getattr(obj, "values", None)
    comps = getattr(obj, "components", None)
    total = int(vals.nbytes) if isinstance(vals, np.ndarray) else 0
    if vals is None and comps is not None:
        total += _array_bytes([psi for _, psi in comps], depth + 1)
    return total


def _feed(h, obj, depth: int = 0) -> None:
    if isinstance(obj, np.ndarray):
        h.update(str(obj.shape).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)) and depth < 3:
        h.update(b"[")
        for x in obj:
            _feed(h, x, depth + 1)
        h.update(b"]")
    elif isinstance(getattr(obj, "tag", None), str) and hasattr(obj, "a"):
        h.update(b"field:" + obj.tag.encode())          # a GaugeField: its gauge tag
    elif hasattr(obj, "components") and hasattr(obj, "values"):
        h.update(b"rho:" + str(getattr(obj, "gauge_tag", "")).encode())
        if obj.values is not None:
            _feed(h, obj.values, depth + 1)
        else:
            for w, psi in obj.components:
                h.update(repr(float(w)).encode())
                _feed(h, psi.values, depth + 1)
    else:
        h.update(repr(obj).encode())


def fingerprint(args, kwargs) -> str:
    """Digest of a call's inputs: state values, field tag, time and the rest."""
    h = hashlib.blake2b(digest_size=16)
    _feed(h, list(args))
    for key in sorted(kwargs):
        h.update(key.encode())
        _feed(h, kwargs[key])
    return h.hexdigest()


@dataclass
class Tracer:
    """Installs span-recording wrappers on ``bindings`` and keeps the spans."""

    bindings: list[Binding]
    fingerprinted: frozenset = frozenset()
    clock: object = time.perf_counter
    spans: list[Span] = field(default_factory=list)
    op: int = -1
    _stack: list[int] = field(default_factory=list)
    _installed: bool = False

    def _wrap(self, fn, span_name):
        tracer = self
        want_fp = span_name in self.fingerprinted

        def wrapper(*args, **kwargs):
            fp = fingerprint(args, kwargs) if want_fp else None
            nbytes = _array_bytes(args) + _array_bytes(kwargs.values())
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(span_name, 0.0, 0.0, parent, tracer.op, fingerprint=fp)
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            span.start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = tracer.clock()
                tracer._stack.pop()
                if parent >= 0:
                    tracer.spans[parent].children_s += span.duration
            span.bytes = nbytes + _array_bytes(result)
            return result

        setattr(wrapper, _MARK, fn)
        wrapper.__name__ = getattr(fn, "__name__", span_name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        self._installed = True
        for b in self.bindings:
            b.original = raw = b.current()
            is_cm = isinstance(raw, classmethod)
            fn = raw.__func__ if is_cm else raw
            if id(fn) not in wrappers:       # one wrapper per function, shared by its bindings
                wrappers[id(fn)] = self._wrap(fn, b.span)
            setattr(b.owner, b.attr, classmethod(wrappers[id(fn)]) if is_cm else wrappers[id(fn)])

    def restore(self) -> None:
        for b in reversed(self.bindings):
            if b.original is not None:
                setattr(b.owner, b.attr, b.original)
                b.original = None
        self._stack.clear()
        self._installed = False

    @contextlib.contextmanager
    def active(self, op: int):
        """Trace one op; the original bindings are back when the block exits."""
        self.op = op
        try:
            self.install()
            yield self
        finally:
            self.restore()
            self.op = -1


def assert_untraced(bindings: list[Binding]) -> None:
    """Fail unless every binding holds the program's own object.

    A re-exported name must be the very object its defining module holds,
    e.g. ``gipsp.cli.wigner_gauge_stratonovich is
    gipsp.phase_space.wigner_gauge_stratonovich``.
    """
    seen: dict[str, object] = {}
    for b in bindings:
        obj = b.current()
        inner = obj.__func__ if isinstance(obj, classmethod) else obj
        if hasattr(inner, _MARK):
            raise RuntimeError(f"{b.span} is still wrapped at {b.owner!r}.{b.attr}")
        if seen.setdefault(b.span, inner) is not inner:
            raise RuntimeError(f"{b.span} is bound to different objects across modules")


@dataclass
class SpanStats:
    """Totals over all spans of one name."""

    s: float = 0.0
    self_s: float = 0.0
    calls: int = 0
    bytes: int = 0
    errors: int = 0
    fingerprints: set = field(default_factory=set)

    @property
    def unique(self) -> int:
        return len(self.fingerprints)


def summarize(spans: list[Span]) -> dict[str, SpanStats]:
    out: dict[str, SpanStats] = {}
    for sp in spans:
        st = out.setdefault(sp.name, SpanStats())
        st.s += sp.duration
        st.self_s += sp.self_s
        st.calls += 1
        st.bytes += sp.bytes
        st.errors += sp.error
        if sp.fingerprint is not None:
            st.fingerprints.add(sp.fingerprint)
    return out
