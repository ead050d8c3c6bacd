"""In-memory span recorder for the traced benchmark run.

A Recorder swaps a function binding for a timing wrapper. Each call of the
wrapper appends one span ``(name, start_ns, end_ns, parent)`` to
``Recorder.spans``, where ``parent`` is the index of the span that was open
when the call started (-1 at top level). Optional count hooks add integers
to ``Recorder.counts`` at the same boundary. ``restore()`` (or leaving the
``with`` block) puts every original binding back.

Nothing here knows about exitbandit; ``layers.py`` says what to wrap.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Optional

Span = tuple  # (name, start_ns, end_ns, parent_index)
CountHook = Callable[[tuple, object], dict]


class Recorder:
    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.spans: list[Optional[Span]] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._clock = clock

    def wrap(self, fn, name: str, count: Optional[CountHook] = None):
        """Timing wrapper around fn that records one span per call."""
        spans, stack, counts, clock = self.spans, self._stack, self.counts, self._clock

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                for key, n in count(args, result).items():
                    key = f"{name}.{key}"
                    counts[key] = counts.get(key, 0) + n
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, name: str, count: Optional[CountHook] = None) -> None:
        """Replace owner.attr (a module or class attribute) by a wrapper.

        A binding that does not exist is reported on stderr and skipped, so a
        renamed function costs its spans, not the whole traced run.
        """
        namespace = vars(owner)
        if attr not in namespace:
            where = getattr(owner, "__name__", repr(owner))
            self.missing.append(f"{where}.{attr}")
            print(f"tracer: no binding {where}.{attr}; not traced", file=sys.stderr)
            return
        original = namespace[attr]
        setattr(owner, attr, self.wrap(original, name, count))
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Recorder":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def self_times(spans: list[Span]) -> list[int]:
    """Duration of each span minus the part of it its child spans cover.

    Children are clipped to the parent's interval and overlapping children
    are merged, so no nanosecond is subtracted twice.
    """
    children: list[list[int]] = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0
        run_start = run_end = None
        for j in sorted(children[i], key=lambda k: spans[k][1]):
            lo, hi = max(spans[j][1], start), min(spans[j][2], end)
            if hi <= lo:
                continue
            if run_end is None or lo > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = lo, hi
            else:
                run_end = max(run_end, hi)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


class SpanTotals:
    """Per-name call counts, total and self time, accumulated over batches.

    entry_ns[layer] sums the spans of a layer that were entered from outside
    it (a caller of another layer, or top level): the layer's inclusive time.
    """

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.entry_ns: dict[str, int] = {}
        self.top_level_ns = 0
        self.counts: dict[str, int] = {}

    def add(self, spans: list[Span], counts: dict[str, int]) -> None:
        layers = [name.partition(".")[0] for name, _, _, _ in spans]
        for (name, start, end, parent), own, layer in zip(spans, self_times(spans), layers):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total_ns[name] = self.total_ns.get(name, 0) + (end - start)
            self.self_ns[name] = self.self_ns.get(name, 0) + own
            if parent < 0 or layers[parent] != layer:
                self.entry_ns[layer] = self.entry_ns.get(layer, 0) + (end - start)
            if parent < 0:
                self.top_level_ns += end - start
        for key, n in counts.items():
            self.counts[key] = self.counts.get(key, 0) + n

    def layer_self_ns(self, layer: str) -> int:
        """Self time of every span whose name starts with ``layer.``."""
        prefix = layer + "."
        return sum(v for k, v in self.self_ns.items() if k.startswith(prefix))
