"""Spans around the program's public functions, installed from outside.

A :class:`Recorder` keeps every span in memory as (id, parent, name, start,
end, attrs) and the caller writes them out when the run ends. :func:`install`
replaces a public function by a recording wrapper in every ``ikann`` module
that bound it, so calls made through ``from .x import f`` names are seen too.

Per-point functions (``inverse_kinematics``, ``is_reachable``) are left
unwrapped: a span (about 4 us) costs more than one of their calls, so they
are timed by probes instead.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager


class Recorder:
    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name: str, **attrs):
        span_id = str(len(self.spans))
        parent = self._stack[-1] if self._stack else None
        record = {"id": span_id, "parent": parent, "name": name,
                  "start": 0.0, "end": 0.0, "attrs": attrs}
        self.spans.append(record)
        self._stack.append(span_id)
        record["start"] = time.perf_counter()
        try:
            yield record["attrs"]
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` under a span; ``count(args, kwargs, result)`` returns the
        work counts to attach to the span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if count is not None:
                    attrs.update(count(args, kwargs, result))
                return result
        return wrapper

    def adopt(self, spans, prefix: str):
        """Add spans a child process recorded, their ids made unique by
        ``prefix``. perf_counter is the system-wide monotonic clock, so the
        child's times share this process's time base."""
        for s in spans:
            self.spans.append(dict(
                s, id=prefix + s["id"],
                parent=None if s["parent"] is None else prefix + s["parent"]))

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def install(recorder: Recorder, targets) -> list:
    """Wrap each (module, function, count) target wherever ikann bound it.

    Returns the replaced bindings for :func:`uninstall`.
    """
    replaced = []
    for module_name, func_name, count in targets:
        home = importlib.import_module(module_name)
        original = getattr(home, func_name)
        wrapper = recorder.wrap(f"{module_name.rsplit('.', 1)[-1]}.{func_name}",
                                original, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ikann" or mod_name.startswith("ikann.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    replaced.append((mod, attr, original))
    return replaced


def uninstall(replaced: list):
    for mod, attr, original in reversed(replaced):
        setattr(mod, attr, original)


def self_times(spans) -> dict:
    """Span id -> duration minus the time its direct children cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] in own:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
