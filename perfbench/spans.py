"""In-memory span tracing around calls into the package's modules.

A `Tracer` replaces a module attribute (for example ``secrsel.study.fit``)
with a wrapper that records one span per call: name, start, end, parent span
and a work count (draws or iterations) taken from the call's arguments or
result.  Spans stay in memory and are written out once, when the run ends.
The package itself is not modified; `restore` puts every original back.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable


@dataclass
class Span:
    span_id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    count: int | None = None  # draws or iterations handled by the call
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans for wrapped module attributes."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: list[tuple[Any, str, Any]] = []

    def wrap(
        self,
        module,
        attr: str,
        name: str,
        describe: Callable[[tuple, dict, Any], tuple[int | None, dict]] | None = None,
    ) -> None:
        """Route `module.attr` through a span named `name`.

        `describe(args, kwargs, result)` returns the span's (count, attrs).
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(
                len(self.spans),
                name,
                self._stack[-1] if self._stack else None,
                time.perf_counter(),
            )
            self.spans.append(span)
            self._stack.append(span.span_id)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if describe is not None:
                span.count, span.attrs = describe(args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._originals.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the durations of its direct children."""
        own = {s.span_id: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def named(self, name: str, **attrs) -> list[Span]:
        return [
            s
            for s in self.spans
            if s.name == name and all(s.attrs.get(k) == v for k, v in attrs.items())
        ]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        own = self.self_times()
        records = [dict(asdict(s), self_s=own[s.span_id]) for s in self.spans]
        path.write_text(json.dumps({"spans": records}, indent=1) + "\n")

