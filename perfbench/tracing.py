"""Per-op deadlines and layer spans recorded from outside the library.

The tracer replaces public functions by name in the module that calls them
(``sparse_kacrice.integrate.density_many`` is the ``density_many`` that
``integrate`` calls), so each span marks a call across a module boundary.
Private helpers are never wrapped; their time counts toward the caller.
"""

from __future__ import annotations

import importlib
import math
import signal
import time
from array import array
from contextlib import contextmanager

import numpy as np

import sparse_kacrice as sk


class Deadline(BaseException):
    """Raised by the interval timer when an op outlives its deadline.

    Derived from BaseException so that no ``except Exception`` in the
    library can swallow it.
    """


def _alarm(signum, frame):
    raise Deadline()


@contextmanager
def deadline(seconds: float):
    """Raise Deadline in the block once ``seconds`` of wall time pass."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _rows(args, kwargs) -> float:
    return float(np.shape(args[1])[0]) if len(args) > 1 and np.ndim(args[1]) == 2 else 1.0


#: (calling module, public name, layer of the callee, work-size function).
#: Every name the library's modules call across a module boundary, plus
#: ``psi`` inside monotonicity, whose per-node calls the scans are made of.
BOUNDARIES = [
    ("integrate", "density_many", "expsum", _rows),
    ("integrate", "invert_moment", "expsum", None),
    ("integrate", "ball_sphere_constants", "geometry", None),
    ("integrate", "diameter", "geometry", None),
    ("integrate", "hull_volume", "geometry", None),
    ("expsum", "ball_sphere_constants", "geometry", None),
    ("expsum", "diameter", "geometry", None),
    ("expsum", "dual_form", "geometry", None),
    ("expsum", "form_det", "geometry", None),
    ("expsum", "interior_contains", "geometry", None),
    ("expsum", "support_function", "geometry", None),
    ("monotonicity", "evaluate", "expsum", None),
    ("monotonicity", "invert_moment", "expsum", None),
    ("monotonicity", "diameter", "geometry", None),
    ("monotonicity", "interior_contains", "geometry", None),
    ("monotonicity", "psi", "monotonicity", None),
    ("complexcase", "evaluate", "expsum", None),
    ("complexcase", "hull_volume", "geometry", None),
]

#: Layer of each entry point the benchmark calls.
ENTRY_LAYERS = {
    "esol_total": "integrate",
    "esol_pspace": "integrate",
    "bkk_total": "complexcase",
    "estimate_esol": "mc_oracle",
    "region_scan": "monotonicity",
}


class Tracer:
    """Spans kept in memory, one row of FIELDS each in a flat array.

    A row is written by a single ``extend`` call, so a deadline that fires
    between bytecodes can never leave a half-written row.
    """

    FIELDS = ("name", "parent", "op", "size", "start", "end")

    def __init__(self):
        self.names: list[str] = []
        self.rows = array("d")
        self.stack = [-1]
        self.op_id = -1
        self._wrappers: list[tuple[object, str, object, object]] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, span_name: str, fn, size=None):
        if span_name not in self.names:
            self.names.append(span_name)
        nid = self.names.index(span_name)
        rows, stack, width = self.rows, self.stack, len(self.FIELDS)

        def traced(*args, **kwargs):
            idx = len(rows) // width
            work = size(args, kwargs) if size else 1.0
            rows.extend((nid, stack[-1], self.op_id, work, time.perf_counter(), math.nan))
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                rows[idx * width + width - 1] = time.perf_counter()
                del stack[stack.index(idx):]

        return traced

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        del self.stack[1:]

    def install(self) -> None:
        """Wrap every boundary in BOUNDARIES; only names in ``__all__``."""
        if not self._wrappers:
            for module_name, attr, layer, size in BOUNDARIES:
                module = importlib.import_module(f"sparse_kacrice.{module_name}")
                original = getattr(module, attr)
                if attr not in sk.__all__ or original is not getattr(sk, attr):
                    raise RuntimeError(f"{module_name}.{attr} is not the public sparse_kacrice.{attr}")
                self._wrappers.append((module, attr, original, self.wrap(f"{layer}.{attr}", original, size)))
        for module, attr, _, traced in self._wrappers:
            setattr(module, attr, traced)

    def uninstall(self) -> None:
        """Put back the originals of what ``install`` wrapped."""
        for module, attr, original, _ in self._wrappers:
            setattr(module, attr, original)

    def patch(self, module, attr: str, span_name: str) -> None:
        """Wrap ``module.attr`` (a benchmark module calling into the library)
        until ``restore``."""
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(span_name, original))

    def restore(self) -> None:
        self.uninstall()
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def columns(self) -> dict[str, np.ndarray]:
        """Span columns, with duration and self time (duration minus the
        time covered by direct children).  A span cut short by a deadline
        before it recorded its end counts as zero length."""
        table = np.array(self.rows).reshape(-1, len(self.FIELDS))
        cols = {name: table[:, i] for i, name in enumerate(self.FIELDS)}
        for name in ("name", "parent", "op"):
            cols[name] = cols[name].astype(np.int64)
        cols["end"] = np.where(np.isnan(cols["end"]), cols["start"], cols["end"])
        duration = cols["end"] - cols["start"]
        parent = cols["parent"]
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
        cols["duration"] = duration
        cols["self"] = duration - children
        return cols
