"""Span tracing of one CLI process, without edits to the package.

``install`` rebinds the public names each stripewalk module imports
(``cli.evolve``, ``characteristics.step``, ``walker.step``,
``BandState.norm``, ``spectral.eig``, ...) to wrappers that open a span
around the call.  A span records its name, start, end, parent and a few
counts taken at the same boundary.  Spans stay in memory; ``summarize``
turns them into per-layer totals when the process ends.

Counting work after a call (nonzero cells, file sizes) is itself recorded
as a ``trace.bookkeeping`` span, so it is charged to tracing rather than
to the caller's self time.
"""

from __future__ import annotations

import os
import sys
import time
import weakref
from collections import defaultdict

NAME, START, END, PARENT, COUNTS = range(5)


class Tracer:
    """In-memory span recorder; spans are lists in the order they opened."""

    def __init__(self, clock=time.monotonic_ns):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while span {popped} is open")

    def count(self, key: str, value: float, index: int | None = None) -> None:
        """Add to a count on a span (default: the innermost open span)."""
        if index is None:
            if not self._stack:
                return
            index = self._stack[-1]
        span = self.spans[index]
        if span[COUNTS] is None:
            span[COUNTS] = {}
        span[COUNTS][key] = span[COUNTS].get(key, 0) + value


def self_times(spans: list[list]) -> list[int]:
    """Per span: its duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def summarize(spans: list[list], is_root=None) -> dict:
    """Totals per span name: calls, self ns, inclusive ns, counts.

    With ``is_root``, only spans at or below a span it accepts count.
    Inclusive time counts only the outermost counted span of a name, so a
    layer that calls itself is not counted twice.
    """
    inside = [is_root is None] * len(spans)
    if is_root is not None:
        for i, s in enumerate(spans):
            inside[i] = (s[PARENT] >= 0 and inside[s[PARENT]]) or bool(is_root(s))
    own = self_times(spans)
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_ns": 0, "incl_ns": 0, "counts": {}})
    for i, s in enumerate(spans):
        if not inside[i]:
            continue
        agg = out[s[NAME]]
        agg["calls"] += 1
        agg["self_ns"] += own[i]
        p = s[PARENT]
        while p >= 0 and inside[p] and spans[p][NAME] != s[NAME]:
            p = spans[p][PARENT]
        if p < 0 or not inside[p]:
            agg["incl_ns"] += s[END] - s[START]
        for key, val in (s[COUNTS] or {}).items():
            agg["counts"][key] = agg["counts"].get(key, 0) + val
    return dict(out)


# --------------------------------------------------------------------------
# wrappers
# --------------------------------------------------------------------------


def _wrap(tracer: Tracer, name: str, fn, before=None, after=None):
    """A function that runs ``fn`` inside a span.

    ``before(index, args, kwargs)`` records counts that need no work;
    ``after(index, args, result)`` runs inside a bookkeeping span.
    """

    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            if before is not None:
                before(index, args, kwargs)
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            book = tracer.open("trace.bookkeeping")
            try:
                after(index, args, result)
            finally:
                tracer.close(book)
        return result

    return wrapper


def _step_counts(tracer: Tracer):
    """Counts of one ``walker.step``: cells in the window, nonzero cells, fresh bytes.

    The kernel window at time n is every component and stripe row over
    the support |u| <= n.  A returned buffer counts as freshly allocated
    the first time it is seen.
    """
    import numpy as np

    seen: dict[int, weakref.ref] = {}  # arrays are unhashable: key by id

    def after(index, args, state):
        amps = getattr(state, "amps", None)
        if amps is None:
            return
        c, n = state.center, state.n
        window = amps[..., c - n : c + n + 1]
        tracer.count("cells", window.size, index)
        tracer.count("nonzero", int(np.count_nonzero(window)), index)
        ref = seen.get(id(amps))
        if ref is None or ref() is not amps:
            seen[id(amps)] = weakref.ref(amps)
            tracer.count("alloc_bytes", amps.nbytes, index)

    return after


def _kernel_timer(tracer: Tracer, fn):
    """Time the private step kernel as a count on the enclosing step span."""

    def wrapper(*args, **kwargs):
        t0 = tracer.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.count("kernel_ns", tracer.clock() - t0)

    return wrapper


def _csv_writer(tracer: Tracer, fn):
    """Count rows and bytes of ``cli._write_csv``; its time stays with the caller."""

    def wrapper(path, header, rows, *rest, **kwargs):
        counter = [0]

        def counted(it):
            for row in it:
                counter[0] += 1
                yield row

        fn(path, header, counted(rows), *rest, **kwargs)
        book = tracer.open("trace.bookkeeping")
        try:
            tracer.count("rows", counter[0], tracer.spans[book][PARENT])
            tracer.count("bytes", os.path.getsize(path), tracer.spans[book][PARENT])
        finally:
            tracer.close(book)

    return wrapper


def _json_writer(tracer: Tracer, fn):
    def wrapper(path, *rest, **kwargs):
        fn(path, *rest, **kwargs)
        book = tracer.open("trace.bookkeeping")
        try:
            tracer.count("bytes", os.path.getsize(path), tracer.spans[book][PARENT])
        finally:
            tracer.close(book)

    return wrapper


#: (defining module, attribute, span name) of every traced layer entry.
TARGETS = [
    ("stripewalk.walker", "step", "walker.step"),
    ("stripewalk.walker", "evolve", "walker.evolve"),
    ("stripewalk.walker", "measure", "walker.measure"),
    ("stripewalk.walker", "band_field", "walker.band_field"),
    ("stripewalk.walker", "BandState.norm", "walker.norm"),
    ("stripewalk.characteristics", "run_series", "characteristics.run_series"),
    ("stripewalk.characteristics", "_stats_from_values", "characteristics.observables"),
    ("stripewalk.characteristics", "n_crit", "characteristics.n_crit"),
    ("stripewalk.characteristics", "height_ratio", "characteristics.fits"),
    ("stripewalk.characteristics", "tail_exponent", "characteristics.fits"),
    ("stripewalk.characteristics", "decay_exponent", "characteristics.fits"),
    ("stripewalk.spectral", "build_w", "spectral.build_w"),
    ("stripewalk.spectral", "eig", "spectral.eig"),
    ("stripewalk.coin", "blocks", "coin.blocks"),
    ("stripewalk.limits", "limit_coefficients", "limits"),
    ("stripewalk.limits", "limit_profiles", "limits"),
    ("stripewalk.limits", "mode_masses", "limits"),
    ("stripewalk.limits", "mode_windows", "limits"),
    ("stripewalk.limits", "scaled_cdf_distance", "limits"),
]

def _rebind(original, replacement) -> None:
    """Point every stripewalk module's binding of ``original`` at ``replacement``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "stripewalk" or mod_name.startswith("stripewalk.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every layer entry that exists.

    Names missing from the package (renamed or removed by a later change)
    are skipped, and their metrics read 0.  Every ``cli.cmd_*`` subcommand
    becomes a ``cli`` span, the root of a traced run.
    """
    import importlib

    import stripewalk.cli as cli  # loads every module that binds the targets

    for mod_name, attr, span in TARGETS:
        mod = importlib.import_module(mod_name)
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(mod, owner_name) if owner_name else mod
        original = getattr(owner, leaf, None)
        if original is None:
            continue
        before = after = None
        if span == "walker.step":
            after = _step_counts(tracer)
        elif span == "walker.band_field":
            after = lambda index, args, result: tracer.count("cells", len(result), index)  # noqa: E731
        elif span == "characteristics.run_series":
            before = lambda index, args, kwargs: tracer.count(  # noqa: E731
                f"m={args[1] if len(args) > 1 else kwargs.get('m')}", 1, index
            )
        wrapper = _wrap(tracer, span, original, before=before, after=after)
        if owner_name:
            setattr(owner, leaf, wrapper)
        else:
            _rebind(original, wrapper)
    walker = importlib.import_module("stripewalk.walker")
    if hasattr(walker, "_step_kernel_rank1"):
        walker._step_kernel_rank1 = _kernel_timer(tracer, walker._step_kernel_rank1)
    for attr, make in (("_write_csv", _csv_writer), ("_write_json", _json_writer)):
        if hasattr(cli, attr):
            setattr(cli, attr, make(tracer, getattr(cli, attr)))
    for attr in [n for n in vars(cli) if n.startswith("cmd_")]:
        setattr(cli, attr, _wrap(tracer, "cli", getattr(cli, attr)))
