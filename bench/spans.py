"""In-memory spans around calls into the pipeline's modules.

A Tracer rebinds a function's name in the namespace its callers look it up
in (for example `mttkrp` in the `tensortopics.cp_als` module) to a wrapper
that records a span, then restores the originals. Spans nest through a
stack, so each knows the span that caused it; every span also carries the
id of the run it belongs to. The pipeline runs single-threaded here
(`threads = 1`), which the one shared stack relies on.

A name that no longer exists is skipped, so a layer a later refactor
bypasses reads as zero calls rather than as an error.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), 0.0, parent, self.run)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, note=None) -> None:
        """Record a span named `name` around every call of module.attr, if
        the module has that name. note(args, kwargs, result) returns
        attributes to store on the span."""
        original = getattr(module, attr, None)
        if original is None:
            return

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
                if note is not None:
                    try:
                        record.attrs.update(note(args, kwargs, result))
                    except (AttributeError, IndexError, KeyError, TypeError) as exc:
                        # A changed signature must not break the traced run.
                        record.attrs["note_error"] = repr(exc)
                return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def unwrap_all(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus its children's. Children of one span
        never overlap: one thread, one stack."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def as_records(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "run": s.run, **s.attrs}
            for s in self.spans
        ]
