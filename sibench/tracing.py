"""Span tracing for the benchmark's traced run.

A :class:`Tracer` keeps spans in memory: which layer and entry point, start,
end and the span that was open when it began.  :func:`installed` patches the
public entry points of each layer with span-recording wrappers for the
length of one traced round and restores them afterwards; the system's own
files are not changed.  Work the kernel dispatches is attributed by where
its code lives: every process step is a span of the layer whose module
defined the generator, and every ``call_at``/``call_later`` callback a span
of its function's layer.  Whatever runs inside a kernel span but in no
child span is kernel self time.

A layer's self time is the time its spans were open minus the part of
each span that its child spans cover, so the self times of all layers sum
to the root span's duration.
"""

from __future__ import annotations

import json
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from types import GeneratorType
from typing import Any, Callable, Iterator, Sequence

#: The layers, named after the system's modules, plus the benchmark's own.
LAYERS = ("kernel", "storage", "txn.history", "txn.checkers",
          "core.propagation", "core.refresh", "core.system", "simmodel",
          "bench.driver")

#: Module prefix -> layer; the first matching prefix wins.
_MODULE_LAYERS = (
    ("repro.storage.wal", "core.propagation"),
    ("repro.storage", "storage"),
    ("repro.txn.history", "txn.history"),
    ("repro.txn", "txn.checkers"),
    ("repro.core.propagation", "core.propagation"),
    ("repro.core.refresh", "core.refresh"),
    ("repro.core", "core.system"),
    ("repro.kernel", "kernel"),
    ("repro.simmodel", "simmodel"),
    ("repro.sim", "simmodel"),
    ("repro", "core.system"),
)

#: Functions whose module's layer is not theirs: a secondary's record
#: delivery is the transport end of propagation.
_QUALNAME_LAYERS = {
    "SecondarySite.deliver_later": "core.propagation",
    "SecondarySite._arrive": "core.propagation",
    "SecondarySite.receive": "core.propagation",
}


def layer_of(module: str, qualname: str) -> str:
    """The layer code from ``module`` (function ``qualname``) belongs to."""
    layer = _QUALNAME_LAYERS.get(qualname)
    if layer is not None:
        return layer
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "bench.driver"


class Tracer:
    """In-memory spans plus the exact counts taken at the same boundaries."""

    def __init__(self) -> None:
        #: (layer, name) of each span kind; spans store the kind's index.
        self.kinds: list[tuple[str, str]] = []
        self._kind_ids: dict[tuple[str, str], int] = {}
        self.span_kinds = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        #: Versions held by the chains ``visible_at`` looked in.
        self.chain_versions = 0
        #: Kernels constructed while the tracer is installed; released,
        #: with the wrapped callbacks, when it is uninstalled.
        self.kernels: list[Any] = []
        self._callbacks: dict[Any, Callable] = {}

    def kind(self, layer: str, name: str) -> int:
        key = (layer, name)
        kind = self._kind_ids.get(key)
        if kind is None:
            kind = self._kind_ids[key] = len(self.kinds)
            self.kinds.append(key)
        return kind

    def open(self, kind: int) -> int:
        index = len(self.ends)
        self.span_kinds.append(kind)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, layer: str, name: str) -> Iterator[int]:
        index = self.open(self.kind(layer, name))
        try:
            yield index
        finally:
            self.close(index)

    def wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        """``fn`` recording one span per call."""
        kind = self.kind(layer, name)
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            index = open_(kind)
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)
        return traced

    def callback(self, fn: Callable) -> Callable:
        """A kernel callback recording one span per call, in its layer."""
        try:
            wrapped = self._callbacks.get(fn)
        except TypeError:       # a method of an unhashable object
            wrapped = None
        if wrapped is None:
            func = getattr(fn, "__func__", fn)
            qualname = getattr(func, "__qualname__", type(func).__name__)
            layer = layer_of(getattr(func, "__module__", "") or "", qualname)
            wrapped = self.wrap(fn, layer, qualname)
            try:
                self._callbacks[fn] = wrapped
            except TypeError:
                pass
        return wrapped

    def process(self, gen: Any) -> Any:
        """A kernel process body recording one span per step."""
        if type(gen) is not GeneratorType:
            return gen
        qualname = gen.__qualname__
        module = gen.gi_frame.f_globals.get("__name__", "")
        return _TracedProcess(gen, self, self.kind(layer_of(module, qualname),
                                                   qualname))

    def release(self) -> None:
        """Drop the kernels and wrapped callbacks, which keep the traced
        round's system or model alive."""
        self.kernels.clear()
        self._callbacks.clear()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def __len__(self) -> int:
        return len(self.ends)


class _TracedProcess:
    """Generator proxy the kernel drives instead of the process body."""

    __slots__ = ("_gen", "_tracer", "_kind")

    def __init__(self, gen: GeneratorType, tracer: Tracer, kind: int):
        self._gen = gen
        self._tracer = tracer
        self._kind = kind

    def send(self, value: Any) -> Any:
        index = self._tracer.open(self._kind)
        try:
            return self._gen.send(value)
        finally:
            self._tracer.close(index)

    def throw(self, exc: BaseException) -> Any:
        index = self._tracer.open(self._kind)
        try:
            return self._gen.throw(exc)
        finally:
            self._tracer.close(index)

    def close(self) -> None:
        self._gen.close()


def self_times(starts: Sequence[float], ends: Sequence[float],
               parents: Sequence[int]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Spans must be listed in order of start, as :class:`Tracer` records
    them, with ``parents[i]`` the index of span ``i``'s parent (-1 for a
    root).  Children are clipped to their parent and overlapping children
    are counted once.
    """
    count = len(starts)
    covered = [0.0] * count
    covered_until = [float("-inf")] * count
    for index in range(count):
        parent = parents[index]
        if parent < 0:
            continue
        lo = max(starts[index], starts[parent])
        hi = min(ends[index], ends[parent])
        if hi <= lo:
            continue
        until = covered_until[parent]
        if lo >= until:
            covered[parent] += hi - lo
            covered_until[parent] = hi
        elif hi > until:
            covered[parent] += hi - until
            covered_until[parent] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(count)]


def layer_split(tracer: Tracer) -> tuple[dict[str, float], dict[str, int],
                                         float]:
    """Per-layer self seconds and span counts, and the root spans' total."""
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    seconds = dict.fromkeys(LAYERS, 0.0)
    spans = dict.fromkeys(LAYERS, 0)
    layer_of_kind = [layer for layer, _name in tracer.kinds]
    root = 0.0
    for index, own in enumerate(selfs):
        layer = layer_of_kind[tracer.span_kinds[index]]
        seconds[layer] += own
        spans[layer] += 1
        if tracer.parents[index] < 0:
            root += tracer.ends[index] - tracer.starts[index]
    return seconds, spans, root


def format_layer_table(seconds: dict[str, float], spans: dict[str, int],
                       root: float) -> str:
    lines = [f"{'layer':<18}{'self_s':>10}{'share':>9}{'spans':>11}"]
    for layer in LAYERS:
        share = seconds[layer] / root if root else 0.0
        lines.append(f"{layer:<18}{seconds[layer]:>10.4f}{share:>9.1%}"
                     f"{spans[layer]:>11}")
    lines.append(f"{'root span':<18}{root:>10.4f}{1.0:>9.1%}"
                 f"{sum(spans.values()):>11}")
    return "\n".join(lines)


def write_spans(tracer: Tracer, stem: Path) -> None:
    """Write the spans as ``<stem>.json`` (span kinds and count) plus
    ``<stem>.bin``: the kind, parent, start and end arrays in that order,
    each native-endian, ``len(tracer)`` items long."""
    stem.parent.mkdir(parents=True, exist_ok=True)
    with stem.with_suffix(".bin").open("wb") as handle:
        for column in (tracer.span_kinds, tracer.parents, tracer.starts,
                       tracer.ends):
            column.tofile(handle)
    stem.with_suffix(".json").write_text(json.dumps({
        "spans": len(tracer),
        "kinds": [{"layer": layer, "name": name}
                  for layer, name in tracer.kinds],
        "columns": [["kind", "i"], ["parent", "i"], ["start", "d"],
                    ["end", "d"]],
    }, indent=1))


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Patch each layer's public entry points to record into ``tracer``."""
    from repro.core.system import ClientSession, ReplicatedSystem
    from repro.kernel.loop import Kernel
    from repro.storage.engine import SIDatabase, Transaction
    from repro.storage.versions import VersionChain
    from repro.storage.wal import LogicalLog
    from repro.txn.history import HistoryRecorder

    originals: list[tuple[type, str, Any]] = []

    def patch(owner: type, attr: str, replacement: Callable) -> None:
        originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def spans(owner: type, layer: str, *attrs: str) -> None:
        for attr in attrs:
            patch(owner, attr, tracer.wrap(owner.__dict__[attr], layer,
                                           f"{owner.__name__}.{attr}"))

    def counted(owner: type, attr: str, counter: str) -> None:
        traced = tracer.wrap(owner.__dict__[attr], "storage",
                             f"{owner.__name__}.{attr}")

        def call(*args, **kwargs):
            tracer.count(counter)
            return traced(*args, **kwargs)
        patch(owner, attr, call)

    kernel_init = Kernel.__init__
    kernel_spawn = Kernel.spawn
    kernel_call_at = Kernel.call_at
    kernel_call_later = Kernel.call_later

    def init(kernel, *args, **kwargs):
        kernel_init(kernel, *args, **kwargs)
        tracer.kernels.append(kernel)

    def spawn(kernel, gen, name="process", daemon=False, eager=False):
        return kernel_spawn(kernel, tracer.process(gen), name, daemon, eager)

    def call_at(kernel, when, fn, *args):
        return kernel_call_at(kernel, when, tracer.callback(fn), *args)

    def call_later(kernel, delay, fn, *args):
        return kernel_call_later(kernel, delay, tracer.callback(fn), *args)

    patch(Kernel, "__init__", init)
    patch(Kernel, "spawn", spawn)
    patch(Kernel, "call_at", call_at)
    patch(Kernel, "call_later", call_later)
    spans(Kernel, "kernel", "run", "run_until_complete", "step")

    counted(Transaction, "read", "storage.read.calls")
    counted(Transaction, "write", "storage.write.calls")
    counted(Transaction, "commit", "storage.commit.calls")
    traced_scan = tracer.wrap(Transaction.scan, "storage", "Transaction.scan")

    def scan(*args, **kwargs):
        before = tracer.chain_versions
        rows = traced_scan(*args, **kwargs)
        tracer.count("storage.scan.calls")
        tracer.count("storage.scan.rows", len(rows))
        tracer.count("storage.scan.versions", tracer.chain_versions - before)
        return rows
    patch(Transaction, "scan", scan)
    spans(Transaction, "storage", "delete", "abort")
    spans(SIDatabase, "storage", "begin", "commit_refresh_at", "vacuum")
    visible_at = VersionChain.visible_at

    def lookup(chain, start_ts):
        tracer.chain_versions += len(chain)
        return visible_at(chain, start_ts)
    patch(VersionChain, "visible_at", lookup)

    spans(HistoryRecorder, "txn.history", "record", "record_recovery",
          "record_subscription", "record_promotion")
    spans(LogicalLog, "core.propagation", "append_start", "append_update",
          "append_commit", "append_abort")
    spans(ClientSession, "core.system", "execute_update",
          "execute_read_only")
    spans(ReplicatedSystem, "core.system", "__init__", "session", "run",
          "quiesce")
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
        tracer.release()
