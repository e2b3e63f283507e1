"""Spans around the calls into each shufflevar module, recorded from outside.

A wrap point is a function at the module attribute its callers look it up
through at call time (``shufflevar.estimators.ms_between`` is the name
``shuffle_estimate`` calls, not ``shufflevar.design.ms_between``).  The
benchmark replaces each one with a timing wrapper while a traced pass runs
and restores it afterwards.  Spans are kept in memory and written out when
the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import namedtuple

# (span name, module, attribute path).  A span name is ``<layer>.<function>``
# for the package module that defines the function; it has several wrap
# points when callers in different modules reach the same function.
WRAP_POINTS = (
    ("cli.main", "shufflevar.cli", "main"),
    ("io.read_dataset", "shufflevar.io", "read_dataset"),
    ("io.write_estimates", "shufflevar.io", "write_estimates"),
    ("io.parse_permutation", "shufflevar.io", "parse_permutation"),
    ("design.build_design", "shufflevar.io", "build_design"),
    ("design.build_design", "shufflevar.sweeps", "build_design"),
    ("design.ms_between", "shufflevar.estimators", "ms_between"),
    ("design.ms_between", "shufflevar.reml", "ms_between"),
    ("design.ms_within", "shufflevar.estimators", "ms_within"),
    # shuffle_estimate reaches these as perms.alpha / perms.apply.
    ("permutations.alpha", "shufflevar.permutations", "alpha"),
    ("permutations.alpha", "shufflevar.sweeps", "alpha"),
    ("permutations.apply", "shufflevar.permutations", "apply"),
    ("estimators.shuffle_estimate", "shufflevar.estimators", "shuffle_estimate"),
    ("estimators.mom_estimate", "shufflevar.estimators", "mom_estimate"),
    ("noise.materialize", "shufflevar.noise", "CovarianceModel.materialize"),
    ("noise.psd_cholesky", "shufflevar.sweeps", "psd_cholesky"),
    ("noise.substream", "shufflevar.sweeps", "substream"),
    ("noise.noise_level", "shufflevar.sweeps", "noise_level"),
    ("reml.reml_estimate", "shufflevar.reml", "reml_estimate"),
    ("sweeps.run_timeseries_sweep", "shufflevar.cli", "run_timeseries_sweep"),
    ("sweeps.emit_sweep_table", "shufflevar.cli", "emit_sweep_table"),
)

Span = namedtuple("Span", "name start end parent run_id")


class Tracer:
    """Installs the wrap points and records spans while installed.

    ``parent`` is the index of the innermost span open when a span began,
    or -1 at the top level.  Times are ``perf_counter_ns`` readings.
    """

    def __init__(self, wrap_points=WRAP_POINTS):
        self.wrap_points = tuple(wrap_points)
        self.spans = []
        self.missing = []
        self.run_id = 0
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self.run_id)

        return traced

    def install(self) -> None:
        """Wrap every wrap point that exists; remember the ones that do not."""
        self.missing = []
        for name, module, attr in self.wrap_points:
            try:
                owner = importlib.import_module(module)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{attr}")
                continue
            # Every wrap point is a plain function or instance method, so the
            # attribute read back is the object to restore.
            self._saved.append((owner, leaf, fn))
            setattr(owner, leaf, self._wrap(name, fn))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved = []

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def self_times(spans) -> list:
    """Self time of each span: its duration minus the part of its interval
    covered by its direct children (overlapping children count once)."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered = 0
        cursor = s.start
        for a, b in sorted((spans[k].start, spans[k].end) for k in kids):
            a, b = max(a, cursor), min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        out.append((s.end - s.start) - covered)
    return out


def summarize(spans) -> dict:
    """Per-pass call counts, total time and self time by span name.

    Returns ``{run_id: {"calls": {name: n}, "total_ns": {name: ns},
    "self_ns": {name: ns}}}``.
    """
    out = {}
    for s, own in zip(spans, self_times(spans)):
        rec = out.setdefault(s.run_id, {"calls": {}, "total_ns": {}, "self_ns": {}})
        rec["calls"][s.name] = rec["calls"].get(s.name, 0) + 1
        rec["total_ns"][s.name] = rec["total_ns"].get(s.name, 0) + (s.end - s.start)
        rec["self_ns"][s.name] = rec["self_ns"].get(s.name, 0) + own
    return out
