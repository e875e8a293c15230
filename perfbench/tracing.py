"""Span and count recording for the traced run.

Wrappers are patched over the attribute a caller looks a function up
through (for example `concealab.nn.training:loss_and_grads`, the name the
training loop calls), so the program itself is unchanged. Spans are kept in
memory as [name, start, end, parent, attrs] and written out when the run
ends. A target that no longer exists is recorded as missing; the layer it
belongs to is then reported as unmeasured, and the run goes on.
"""
from __future__ import annotations

import functools
import importlib
import json
import time


def _resolve(target: str):
    """'pkg.module:Attr.path' -> (owner, last name, raw attribute). Dict
    owners (such as a command table) are indexed by key."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = owner[part] if isinstance(owner, dict) else getattr(owner, part)
    last = parts[-1]
    if isinstance(owner, dict):
        return owner, last, owner[last]
    if isinstance(owner, type):
        return owner, last, owner.__dict__[last]
    return owner, last, getattr(owner, last)


def _assign(owner, name: str, value) -> None:
    if isinstance(owner, dict):
        owner[name] = value
    else:
        setattr(owner, name, value)


class Tracer:
    """Holds the spans of one traced run and the patches that record them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def ancestor_attr(self, key: str, default=None):
        """Value of `key` on the innermost open span that carries it."""
        for idx in reversed(self._stack):
            attrs = self.spans[idx][4]
            if attrs and key in attrs:
                return attrs[key]
        return default

    def wrap(self, name: str, fn, before=None, after=None):
        """Return fn wrapped in a span. before(tracer, args, kwargs) gives the
        span's attrs; after(tracer, args, kwargs, result, attrs) may update
        them once the call returns."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = before(self, args, kwargs) if before else None
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, attrs]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after:
                rec[4] = after(self, args, kwargs, result, dict(attrs or {}))
            return result

        return traced

    def patch(self, target: str, name: str, before=None, after=None) -> bool:
        try:
            owner, attr, raw = _resolve(target)
        except (ImportError, AttributeError, KeyError):
            self.missing.append(target)
            return False
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(self.wrap(name, raw.__func__, before, after))
        else:
            new = self.wrap(name, raw, before, after)
        _assign(owner, attr, new)
        self._patches.append((owner, attr, raw))
        return True

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            _assign(owner, attr, raw)

    def dump(self, path, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "missing": self.missing,
                       "fields": ["name", "start", "end", "parent", "attrs"],
                       "spans": self.spans}, fh)
            fh.write("\n")
