"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark side only: :class:`Tracer` replaces
each public celldiv function named in :data:`TARGETS` by a wrapper at
every loaded ``celldiv`` module attribute that holds it, so calls made
through ``from .direct import solve_direct`` style imports are caught as
well as module-qualified ones. Spans stay in memory until the run writes
them out as JSON. With tracing off nothing is patched, so the untraced
run executes the program unchanged.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path


def _solve_direct_attrs(args, kwargs, result):
    iters = int(result.iterations)
    return {"iters": iters, "node_iters": iters * int(result.N.values.size)}


def _read_csv_attrs(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _write_csv_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(result)}


# (span name, defining module, function name, attributes taken from the call).
# Several functions may share one span name (the error metrics do).
TARGETS = (
    ("cli.main", "celldiv.cli", "main", None),
    ("direct.solve_pair", "celldiv.direct", "solve_pair", None),
    ("direct.solve_direct", "celldiv.direct", "solve_direct", _solve_direct_attrs),
    ("direct.solve_adjoint", "celldiv.direct", "solve_adjoint", None),
    ("direct.check_invariants", "celldiv.direct", "check_invariants", None),
    ("direct.constant_b_series", "celldiv.direct", "constant_b_series", None),
    ("entropy.build_perturbation", "celldiv.entropy", "build_perturbation", None),
    ("entropy.gap_study", "celldiv.entropy", "gap_study", None),
    ("inverse.recover_rate", "celldiv.inverse", "recover_rate", None),
    ("inverse.clamp_observation", "celldiv.inverse", "clamp_observation", None),
    ("inverse.error_metrics", "celldiv.inverse", "weighted_product_error", None),
    ("inverse.error_metrics", "celldiv.inverse", "rate_error_on_support", None),
    ("harness.add_noise", "celldiv.harness", "add_noise", None),
    ("harness.convergence_study", "celldiv.harness", "convergence_study", None),
    ("harness.emit_report", "celldiv.harness", "emit_report", None),
    ("toy.toy_solve", "celldiv.toy", "toy_solve", None),
    ("toy.toy_study", "celldiv.toy", "toy_study", None),
    ("grid.write_csv", "celldiv.grid", "write_csv", _write_csv_attrs),
    ("grid.read_csv", "celldiv.grid", "read_csv", _read_csv_attrs),
)

SPAN_NAMES = tuple(dict.fromkeys(t[0] for t in TARGETS))


class Tracer:
    """In-memory span store plus the patching that feeds it.

    A span is ``(id, name, parent id, start, end, attrs, phase)``; ``phase``
    tags the pass or set-up repetition the span belongs to. A span's slot
    is reserved when its call starts and filled when it returns, so the
    list is complete whenever no wrapped call is running.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self.phase = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, attrs_fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)  # reserve the id; filled in on exit
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (sid, name, parent, start, end, {}, self.phase)
            if attrs_fn is not None:
                self.spans[sid][5].update(attrs_fn(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target at every celldiv module attribute that holds it."""
        self.absent = []
        modules = [m for k, m in list(sys.modules.items()) if k == "celldiv" or k.startswith("celldiv.")]
        for span_name, module_name, attr, attrs_fn in TARGETS:
            home = sys.modules.get(module_name)
            original = getattr(home, attr, None) if home is not None else None
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(span_name, original, attrs_fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched = []

    def dump(self, path: Path, extra: dict) -> None:
        keys = ("id", "name", "parent", "start", "end", "attrs", "phase")
        rows = [dict(zip(keys, s)) for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**extra, "absent": self.absent, "spans": rows}, indent=1) + "\n")


def self_times(spans) -> dict[int, float]:
    """Self time of each span: its duration minus the time its children cover.

    Children of one parent run one after another on one thread, so their
    durations do not overlap and can be summed.
    """
    child_total: dict[int, float] = {}
    for s in spans:
        if s[2] is not None:
            child_total[s[2]] = child_total.get(s[2], 0.0) + (s[4] - s[3])
    return {s[0]: (s[4] - s[3]) - child_total.get(s[0], 0.0) for s in spans}


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, summed self time and summed numeric attributes."""
    selfs = self_times(spans)
    out = {name: {"calls": 0, "self_s": 0.0} for name in SPAN_NAMES}
    for s in spans:
        agg = out[s[1]]
        agg["calls"] += 1
        agg["self_s"] += selfs[s[0]]
        for key, value in s[5].items():
            agg[key] = agg.get(key, 0) + value
    return out
