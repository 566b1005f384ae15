"""In-memory span recorder for the traced run.

The recorder replaces a function where the program looks it up (a module
attribute or a class attribute) with a wrapper that records one span per
call: name, start, end, parent span, request and counts.  Spans stay in
memory until the run ends.  Names that a later version of the program no
longer has are skipped, so the benchmark keeps running; their layer then
reads zero.
"""

from __future__ import annotations

import json
from time import perf_counter


class Recorder:
    def __init__(self):
        # one list per span: [name, start, end, parent index or -1, request, counts]
        self.spans = []
        self.request = -1
        self._stack = []
        self._patched = []

    def wrap(self, name, fn, counter=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    span[5] = counter(args, result)
                except (AttributeError, TypeError):  # the program changed shape
                    pass
            return result

        return traced

    def patch(self, owner, attr, name, counter=None):
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        self._patched.append((owner, attr, fn))
        setattr(owner, attr, self.wrap(name, fn, counter))

    def unpatch(self):
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def self_times(self) -> list:
        """Each span's duration minus the durations of its direct children."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, request, counts) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "request": request, "parent": parent,
                                     "start": start, "end": end, "counts": counts or {}}) + "\n")
