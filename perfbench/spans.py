"""In-memory span recorder used by the traced benchmark run.

A span is (name, start, end, parent, rows): ``rows`` is the batch size the
call handled, so per-row costs are measured where the work happens. Spans
are opened only from the benchmark's own files, around its calls into
sbikit modules, or by wrapping a public method on one object. With tracing
off, ``span`` is a shared no-op context and ``wrap`` returns the callable
unchanged, so the end-to-end run executes the library calls untouched.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext

_NOOP = nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []      # [name, start, end, parent index, rows]
        self._stack: list[int] = []

    def span(self, name: str, rows: int = 0):
        return self._span(name, rows) if self.enabled else _NOOP

    @contextmanager
    def _span(self, name, rows):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, int(rows)])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, fn, name: str, rows_arg: int | None = 0):
        """Time every call of ``fn``; ``rows_arg`` names the positional
        argument whose leading dimension (or integer value) is the row count."""
        if not self.enabled:
            return fn

        def timed(*args, **kwargs):
            rows = 0
            if rows_arg is not None:
                value = args[rows_arg]
                rows = value if isinstance(value, int) else len(value)
            with self._span(name, rows):
                return fn(*args, **kwargs)

        return timed

    # -- queries over recorded spans ---------------------------------------

    def mark(self) -> int:
        """Position to pass as ``since`` to restrict later queries."""
        return len(self.spans)

    def select(self, name: str, since: int = 0, until: int | None = None) -> list[list]:
        return [s for s in self.spans[since:until] if s[0] == name and s[2] is not None]

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.select(name)]

    def self_times(self, name: str) -> list[float]:
        """Span durations minus the time covered by their direct children."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s[3] >= 0 and s[2] is not None:
                child_time[s[3]] = child_time.get(s[3], 0.0) + (s[2] - s[1])
        return [s[2] - s[1] - child_time.get(i, 0.0)
                for i, s in enumerate(self.spans) if s[0] == name and s[2] is not None]

    def write(self, path) -> None:
        """One JSON object per span, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, rows) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent, "rows": rows,
                                     "start": start - origin, "end": end - origin}) + "\n")
