"""In-memory spans recorded by the benchmark around calls into the
program's public layer functions.

Nothing inside the program changes: :meth:`Tracer.wrap` swaps a module or
class attribute for a timing wrapper while tracing is on and puts the
original back afterwards.  A span records its name, start, end, parent and
the root span (one per benchmark operation) it belongs to; spans stay in
memory until :meth:`Tracer.dump` writes them when the run ends.  A span's
self time is its duration minus the part of it that its children cover.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Optional


class Span:
    __slots__ = ("id", "parent", "root", "name", "start", "end", "attrs")

    def __init__(self, span_id, parent, root, name, start):
        self.id = span_id
        self.parent = parent
        self.root = root
        self.name = name
        self.start = start
        self.end = start
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.id, "parent": self.parent, "root": self.root,
            "name": self.name, "start": self.start, "end": self.end,
            "attrs": self.attrs,
        }


class Tracer:
    def __init__(self, share_root: bool = False):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        #: With *share_root*, spans opened on a thread with no open span of
        #: its own (a pool thread working for the one driving thread) take
        #: the operation span set by :meth:`share` as their parent.
        self.share_root = share_root
        self.shared_parent: Optional[Span] = None

    def share(self, span: Optional[Span]) -> None:
        if self.share_root:
            self.shared_parent = span

    @contextmanager
    def span(self, name: str):
        previous: Optional[Span] = getattr(self._local, "current", None)
        parent = previous if previous is not None else self.shared_parent
        record = Span(
            next(self._ids),
            parent.id if parent is not None else None,
            parent.root if parent is not None else None,
            name,
            time.perf_counter(),
        )
        if record.root is None:
            record.root = record.id
        self._local.current = record
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._local.current = previous
            self.spans.append(record)

    def wrap(self, owner: Any, attribute: str, name: str,
             after: Optional[Callable[[Span, Any], None]] = None) -> None:
        """Replace ``owner.attribute`` by a wrapper that records a span
        *name* around every call; *after(span, result)* may annotate it."""
        original = getattr(owner, attribute)
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name) as record:
                result = original(*args, **kwargs)
                if after is not None:
                    after(record, result)
                return result

        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        result = {}
        for span in self.spans:
            covered = 0.0
            reach = span.start
            for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
                start = max(child.start, reach)
                end = min(child.end, span.end)
                if end > start:
                    covered += end - start
                    reach = end
            result[span.id] = span.duration - covered
        return result

    def by_root_class(self, name: str, classes: dict[int, str]) -> dict[str, list[Span]]:
        """Spans called *name*, grouped by the class of their root span."""
        grouped: dict[str, list[Span]] = {}
        for span in self.spans:
            if span.name == name and span.root in classes:
                grouped.setdefault(classes[span.root], []).append(span)
        return grouped

    def dump(self, path: str) -> None:
        self_times = self.self_times()
        totals: dict[str, dict] = {}
        for span in self.spans:
            entry = totals.setdefault(span.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += span.duration
            entry["self_s"] += self_times[span.id]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"layers": totals, "spans": [span.as_dict() for span in self.spans]},
                handle, default=str,
            )
