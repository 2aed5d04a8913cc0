"""In-memory spans recorded by the harness around calls into each layer.

A span is ``{name, parent, start, end}``; names are ``<layer>.<what>``
so self time folds by layer.  Spans live in a list and are written to
the result file when the run ends -- nothing is recorded during the
timed rounds, which run without a tracer.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Tracer:
    """Records nested spans; ``parent`` is an index into :attr:`spans`."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "parent": parent,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield index
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add_derived(self, name: str, parent: int, seconds: float) -> None:
        """A child span known only by its duration.

        Used for time the program reports about itself (the ``timings``
        of a record): it happened somewhere inside ``parent``, so it is
        laid at the parent's start and flagged ``derived``.
        """
        start = self.spans[parent]["start"]
        self.spans.append({"name": name, "parent": parent, "start": start,
                           "end": start + seconds, "derived": True})

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    def self_times(self, root: Optional[int] = None) -> Dict[str, float]:
        """Self time per layer: a span's duration minus its children's.

        Restricted to the subtree under ``root`` when given.  The
        values sum to the root's duration exactly, so what the harness
        did not attribute shows as the ``harness`` layer's share.
        """
        children = [0.0] * len(self.spans)
        keep = [root is None] * len(self.spans)
        for index, span in enumerate(self.spans):
            parent = span["parent"]
            if parent is not None:
                children[parent] += span["end"] - span["start"]
                keep[index] = keep[index] or keep[parent]
            if index == root:
                keep[index] = True
        layers: Dict[str, float] = {}
        for index, span in enumerate(self.spans):
            if keep[index]:
                layer = span["name"].split(".", 1)[0]
                layers[layer] = (layers.get(layer, 0.0) + span["end"]
                                 - span["start"] - children[index])
        return layers
