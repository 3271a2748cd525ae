"""In-memory spans around calls into ``bwsl``'s public functions.

A :class:`Tracer` replaces public functions and methods of the package by
wrappers that record one span per call: (id, name, start, end, parent,
attrs). Spans stay in memory and are written once, at the end of a run.
Wrappers are installed only for the traced operations of a run and are
removed afterwards, so untraced operations run the package's own code.

A public name that no longer exists is reported as missing; it does not
fail the run.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (span name, module, attribute path) of every wrapped public name
WRAPPED = (
    ("features.windows", "bwsl.features", "build_windows"),
    ("features.forward_ratios", "bwsl.features", "PreparedPanel.forward_ratios"),
    ("policy.forward", "bwsl.policy", "policy_forward"),
    ("autodiff.backward", "bwsl.autodiff", "Tape.gradients"),
    ("portfolio.select_legs", "bwsl.portfolio", "select_legs"),
    ("portfolio.generate", "bwsl.portfolio", "generate"),
    ("portfolio.realize", "bwsl.portfolio", "realize_return"),
    ("trainer.threshold", "bwsl.trainer", "market_threshold"),
    ("trainer.update", "bwsl.policy", "PolicyParams.apply_update"),
    ("metrics.report", "bwsl.metrics", "report_or_degenerate"),
    ("interpret.sensitivity", "bwsl.interpret", "average_sensitivity"),
)


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus its children's. Spans come from one call
    stack, so a span's children never overlap."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    return {s.sid: s.duration - child_time.get(s.sid, 0.0) for s in spans}


def _forward_attrs(args, result) -> dict:
    """A hash of the forward's inputs, so distinct (windows, params) count once."""
    windows, params = args[0], args[2]
    h = hashlib.sha1(getattr(windows, "data", windows).tobytes())
    for t in params.tensors().values():
        h.update(t.data.tobytes())
    return {"key": h.hexdigest()}


def _backward_attrs(args, result) -> dict:
    tape = args[0]
    grads = getattr(result, "_grads", None)  # computed bytes, when exposed
    attrs = {"records": len(tape)}
    if grads is not None:
        attrs["grad_bytes"] = sum(getattr(g, "nbytes", 8) for g in grads.values())
    return attrs


OBSERVERS = {"policy.forward": _forward_attrs, "autodiff.backward": _backward_attrs}


class Tracer:
    """Records spans opened by the benchmark and by wrapped package calls."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._next = 0

    @contextmanager
    def span(self, name: str):
        """Open a span; yields its attribute dict."""
        attrs: dict = {}
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, attrs))

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if observe is not None:
                    try:
                        attrs.update(observe(args, result))
                    except (AttributeError, IndexError, TypeError):
                        attrs["unobserved"] = True  # the signature changed
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every name in WRAPPED wherever the package binds it."""
        undo = []
        try:
            for name, module_name, path in WRAPPED:
                target = _resolve(module_name, path)
                if target is None:
                    if name not in self.missing:
                        self.missing.append(name)
                    continue
                wrapper = self._wrap(name, target[2])
                for holder, attr in _bindings(*target):
                    undo.append((holder, attr, target[2]))
                    setattr(holder, attr, wrapper)
            yield self
        finally:
            for holder, attr, fn in reversed(undo):
                setattr(holder, attr, fn)

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(
                    {"id": s.sid, "name": s.name, "start": s.start, "end": s.end,
                     "parent": s.parent, **s.attrs}
                ) + "\n")


def _resolve(module_name: str, path: str):
    """(owner, attribute, function) for a dotted path, or None if gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = vars(owner).get(attr)
    return None if fn is None else (owner, attr, fn)


def _bindings(owner, attr: str, fn) -> list:
    """Every (holder, name) that binds ``fn``: the class for a method, else
    each loaded package module that defines or imported the function."""
    if isinstance(owner, type):
        return [(owner, attr)]
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or mod_name.split(".")[0] != "bwsl":
            continue
        found += [(mod, key) for key, value in list(vars(mod).items()) if value is fn]
    return found
