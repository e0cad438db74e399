"""Span tracer that wraps iqnlab functions from outside the package.

Every wrapped call records one span (name, start, end, parent) in flat
arrays, so a traced run of ~10^6 calls stays a few tens of MB. Self time is
a span's duration minus the durations of its direct children; calls are
strictly nested because the solvers are single-threaded.

Functions are wrapped where they are looked up: objective methods on the
class, module-level functions as module attributes. :meth:`Tracer.restore`
puts back exactly what was there before, including "inherited, not
defined here" for class attributes.
"""

import time
from array import array

_MISSING = object()


class Stat:
    """Aggregate of one span name: calls, self time, exceptions raised."""

    __slots__ = ("calls", "self_s", "total_s", "raised")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.raised = 0


class Tracer:
    """Collects spans and per-name aggregates from wrapped callables.

    ``after(args, kwargs, result, duration_s)`` hooks run outside the timed
    interval of the span, after it closes, and let callers count what a
    call returned (a step's skipped stage, a file's size, computed flops).
    """

    def __init__(self, record_spans=True):
        self.record_spans = record_spans
        self.names = []
        self.stats = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._ids = {}
        self._stack = []  # [span index, summed child duration]
        self._patches = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.stats[name] = Stat()
        return self._ids[name]

    def wrap(self, owner, attr, name, after=None):
        """Replace ``owner.attr`` with a timed wrapper named ``name``."""
        target = getattr(owner, attr)
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        name_id = self._name_id(name)
        stat = self.stats[name]
        stack = self._stack
        record = self.record_spans
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            idx = len(starts)
            if record:
                names.append(name_id)
                parents.append(parent)
                starts.append(0.0)
                ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = target(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if record:
                    starts[idx] = start
                    ends[idx] = end
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(args, kwargs, result, duration)
            return result

        traced.__wrapped__ = target
        traced.__name__ = getattr(target, "__name__", attr)
        setattr(owner, attr, traced)
        return traced

    def restore(self):
        """Undo every wrap, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def stat(self, name):
        """Aggregate for ``name``; zero when the name was never called."""
        return self.stats.get(name) or Stat()

    def spans(self):
        """Recorded spans as columns: name index, parent index, start, end."""
        return {"name": self.span_name, "parent": self.span_parent,
                "start": self.span_start, "end": self.span_end}
