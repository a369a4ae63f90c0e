"""In-memory span recorder for the traced run.

A span is (name, start, end, parent, pass id). Spans are kept in a list and
written out once, when the run ends. A span's self time is its duration
minus the time its direct children cover.
"""

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, pass id]
        self._stack = []
        self.pass_id = 0

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.pass_id]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self):
        """Self time of every span, in span order."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def layer_seconds(self):
        """Summed self time per span name."""
        totals = {}
        for rec, own in zip(self.spans, self.self_times()):
            totals[rec[0]] = totals.get(rec[0], 0.0) + own
        return totals

    def commands(self):
        """(name, duration, summed self time of its descendants) per top-level span."""
        own = self.self_times()
        out = []
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            if parent is None:
                inner = sum(o for k, o in enumerate(own) if self._descends(k, idx))
                out.append((name, end - start, inner))
        return out

    def _descends(self, k, ancestor):
        parent = self.spans[k][3]
        while parent is not None:
            if parent == ancestor:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path):
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "pass": pid}
            for n, s, e, p, pid in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=1)
            fh.write("\n")

