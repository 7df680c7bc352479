"""Span recording around the program's public entry points.

The program is instrumented from outside: :func:`instrument` rebinds
each entry point at the module or class attribute its caller looks it up
through (``repro.parallel.backends.extract_features``,
``SZCompressor.compress_many``, ...) to a wrapper that records one span
per call -- name, layer, start, end, parent span, thread and snapshot
index -- into an in-memory :class:`Recorder`.  Nothing is written while
the program runs; :meth:`Recorder.write` dumps the spans at the end.

Two rules make per-layer sums meaningful:

- A wrapped call nested inside another call of the *same layer* on the
  same thread is not recorded again (``HuffmanCodec.encode_narrowed``
  calling ``encode`` counts once).
- A span opened on a thread with no open span of its own (an entropy
  encode on ``compress_many``'s pool threads) takes the innermost open
  span of the thread that created the recorder as its parent, so pool
  work is attributed to the ``compress_many`` call that fanned it out.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

__all__ = ["Recorder", "Span", "instrument", "self_times"]


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: int | None
    thread: int
    snapshot: int
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans and counters while :attr:`active` is set."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.active = False
        #: Stream snapshot the current work belongs to (-1: set-up).
        self.snapshot = -1
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[Span]] = {}
        self._home = threading.get_ident()
        self._lock = threading.Lock()

    def count(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def call(
        self,
        layer: str,
        name: str,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        on_return: Callable[["Recorder", tuple, dict, Any], None] | None,
    ) -> Any:
        if not self.active:
            return fn(*args, **kwargs)
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if any(s.layer == layer for s in stack):
            return fn(*args, **kwargs)
        if stack:
            parent: int | None = stack[-1].id
        else:
            home = self._stacks.get(self._home) if tid != self._home else None
            parent = home[-1].id if home else None
        span = Span(next(self._ids), name, layer, parent, tid, self.snapshot, 0.0)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if on_return is not None:
            on_return(self, args, kwargs, result)
        return result

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: (s.start, s.id)):
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out: dict[int, float] = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


# -- the instrumented entry points -------------------------------------------


def _count_compress(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    views = args[1]
    rec.count("sz.blocks", len(views))
    rec.count("sz.values", sum(int(v.size) for v in views))


def _count_encode(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.count("entropy.encode_calls")
    rec.count("entropy.bytes_in", int(np.asarray(args[1]).nbytes))
    rec.count("entropy.bytes_out", len(result))


def _count_select(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.count("selection.probed", len(result.verdicts))
    rec.count("selection.eligible", sum(1 for v in result.verdicts if v.eligible))


def _targets() -> list[tuple[Any, str, str, str, Any]]:
    """(owner, attribute, layer, span name, counter hook) per entry point."""
    from repro.compression import api
    from repro.compression.codecs import HuffmanCodec, ZlibCodec
    from repro.compression.sz import SZCompressor
    from repro.foresight.evaluator import FieldReference
    from repro.models.calibration import RateModelBank
    from repro.parallel import backends
    from repro.stream import controller, source
    from repro.stream.ledger import RunLedger

    targets = [
        (source, "load_snapshot", "source", "source.load", None),
        (controller, "derive_eb_budget", "selection", "selection.budget", None),
        (controller, "select_compressor", "selection", "selection.select", _count_select),
        (controller, "calibrate_rate_model", "calibration", "calibration.fit", None),
        (RateModelBank, "calibrate", "calibration", "calibration.fit", None),
        (FieldReference, "spectrum", "evaluator", "evaluator.spectrum", None),
        (backends, "extract_features", "features", "features", None),
        (backends, "optimize_for_spectrum", "optimizer", "optimizer", None),
        (backends, "optimize_combined", "optimizer", "optimizer", None),
        (backends.SerialBackend, "run_snapshot", "backend", "backend.snapshot", None),
        (SZCompressor, "compress_many", "sz", "sz.compress", _count_compress),
        (SZCompressor, "estimate_many", "sz", "sz.estimate", None),
        (api, "decompress_any", "sz", "sz.decompress", None),
        (RunLedger, "append", "ledger", "ledger.append", None),
        (
            controller.InSituController, "process_snapshot", "controller",
            "controller.snapshot", None,
        ),
    ]
    for codec in (ZlibCodec, HuffmanCodec):
        for attr in ("encode", "encode_narrowed"):
            targets.append(
                (codec, attr, "entropy", f"entropy.encode.{codec.name}", _count_encode)
            )
        targets.append((codec, "decode", "entropy", f"entropy.decode.{codec.name}", None))
    return targets


def _wrap(recorder: Recorder, fn: Callable, layer: str, name: str, hook: Any) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return recorder.call(layer, name, fn, args, kwargs, hook)

    return wrapper


def instrument(recorder: Recorder) -> Callable[[], None]:
    """Rebind every entry point to a recording wrapper; returns the undo."""
    originals: list[tuple[Any, str, Any]] = []
    for owner, attr, layer, name, hook in _targets():
        # vars() sees only what the owner defines itself, so an inherited
        # method is wrapped on the subclass and restored by deletion.
        own = vars(owner).get(attr)
        originals.append((owner, attr, own))
        setattr(owner, attr, _wrap(recorder, getattr(owner, attr), layer, name, hook))

    def undo() -> None:
        for owner, attr, own in reversed(originals):
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    return undo
