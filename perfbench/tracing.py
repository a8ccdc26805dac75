"""Spans and counters around the program's public functions, from outside.

``Tracer.instrument(m)`` takes a freshly imported package (see
workloads.import_package) and replaces each function in SPANS, wherever a
package module binds it, by a wrapper that records a span: its name, start,
end and the span it was called from.  Spans are kept in memory, in flat
arrays, and written out by ``write``.  A layer's self time is its span time
less the time of its child spans.  The methods in COUNTERS only count
calls; wrapping every Fraction operation in a span would cost more than the
operation.  ``uninstall`` restores everything, Fraction included.
"""

from __future__ import annotations

import fractions
import json
import time
from array import array
from collections import defaultdict

from .checks import coeff_bits

# (span name, module, attribute); one span name may cover several functions
SPANS = [
    ("parse.parse_poly", "parse", "parse_poly"),
    ("scalars.quadext_sqrt", "scalars", "quadext_sqrt"),
    ("scalars.to_bigfloat", "scalars", "to_bigfloat"),
    ("poly.mul", "poly", "MultiPoly.__mul__"),
    ("poly.exact_divide", "poly", "exact_divide"),
    ("poly.divide_out", "poly", "divide_out"),
    ("poly.poly_gcd", "poly", "poly_gcd"),
    ("poly.resultant", "poly", "resultant"),
    ("poly.discriminant", "poly", "discriminant"),
    ("poly.det_fraction_free", "poly", "det_fraction_free"),
    ("poly.solve_nullspace", "poly", "solve_nullspace"),
    ("poly.rf_new", "poly", "RationalFunction.__init__"),
    ("poly.squarefree_decomposition", "poly", "squarefree_decomposition"),
    ("poly.poly_sqrt", "poly", "poly_sqrt"),
    ("poly.ratfunc_sqrt", "poly", "ratfunc_sqrt"),
    ("series.mul", "series", "LaurentSeries.__mul__"),
    ("series.inverse", "series", "LaurentSeries.inverse"),
    ("series.sqrt", "series", "LaurentSeries.sqrt"),
    ("series.compose", "series", "LaurentSeries.compose"),
    ("curve.model", "curve", "CurveModel.__init__"),
    ("curve.frame", "curve", "AffinePlace.frame"),
    ("curve.frame", "curve", "RamifiedAffinePlace.frame"),
    ("curve.frame", "curve", "InfinitePlace.frame"),
    ("curve.frame", "curve", "RamifiedInfinitePlace.frame"),
    ("curve.local_series", "curve", "local_series"),
    ("curve.order_at", "curve", "order_at"),
    ("curve.residue", "curve", "residue_of_quadratic_differential"),
    ("curve.divisor_of", "curve", "divisor_of"),
    ("curve.coprime_basis", "curve", "coprime_basis"),
    ("curve.j_invariant", "curve", "j_invariant"),
    ("curve.j_invariant", "curve", "j_invariant_cubic"),
    ("curve.j_invariant", "curve", "j_invariant_quartic"),
    ("mp.mp_differential", "mp", "mp_differential"),
    ("mp.mp_of_inverse", "mp", "mp_of_inverse"),
    ("numeric.poly_roots", "numeric", "poly_roots"),
    ("numeric.eval_poly", "numeric", "eval_poly"),
    ("numeric.critical_values", "numeric", "critical_values"),
    ("numeric.newton_polish_pair", "numeric", "newton_polish_pair"),
]

_ARITH = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__rpow__", "inverse",
)
# (counter name, module or None for the stdlib Fraction, class name)
COUNTERS = [
    ("scalars.fraction_ops", None, "Fraction"),
    ("scalars.quadext_ops", "scalars", "QuadExt"),
    ("scalars.branchext_ops", "curve", "BranchExt"),
]

# spans whose frames past the first are precision-ladder retries
_LADDER = ("curve.order_at", "curve.residue")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.gcd_max_bits = 0
        self.missing: list[str] = []
        self._stack: list[list] = []  # [span index, name id, start, child time, frames]
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def enter(self, nid: int):
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        t = time.perf_counter()
        self.span_start.append(t)
        self._stack.append([idx, nid, t, 0.0, 0])

    def exit(self):
        t = time.perf_counter()
        idx, nid, t0, child, frames = self._stack.pop()
        self.span_end[idx] = t
        dur = t - t0
        self.calls[nid] += 1
        self.self_s[nid] += dur - child
        if self._stack:
            self._stack[-1][3] += dur
        if self.names[nid] in _LADDER and frames > 1:
            self.counters["curve.ladder_retries"] += frames - 1

    def _note_frame(self):
        for entry in reversed(self._stack):
            if self.names[entry[1]] in _LADDER:
                entry[4] += 1
                return

    def _span_wrapper(self, name, fn):
        nid = self.name_id(name)
        enter, exit_ = self.enter, self.exit
        if name == "poly.poly_gcd":
            def wrapper(*args, **kwargs):
                self.gcd_max_bits = max(self.gcd_max_bits, coeff_bits(list(args[:2])))
                enter(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_()
        elif name == "curve.frame":
            def wrapper(*args, **kwargs):
                self._note_frame()
                enter(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_()
        else:
            def wrapper(*args, **kwargs):
                enter(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_()
        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing ------------------------------------------------------------

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def instrument(self, m):
        """Wrap the package m (a namespace of its modules) in place."""
        modules = [getattr(m, k) for k in vars(m)]
        for name, modname, attr in SPANS:
            owner = getattr(m, modname)
            cls_name, _, fn_name = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            fn = getattr(owner, fn_name, None) if owner is not None else None
            if fn is None:
                self.missing.append("%s.%s" % (modname, attr))
                continue
            wrapper = self._span_wrapper(name, fn)
            # every binding of the same function: class aliases such as
            # __rmul__ = __mul__, and names imported into other modules
            owners = [owner] if cls_name else modules
            for o in owners:
                for key, val in list(vars(o).items()):
                    if val is fn:
                        self._replace(o, key, wrapper)
        for name, modname, cls_name in COUNTERS:
            cls = fractions.Fraction if modname is None else getattr(getattr(m, modname), cls_name, None)
            if cls is None:
                self.missing.append("%s.%s" % (modname, cls_name))
                continue
            done = {}
            for key in _ARITH:
                fn = cls.__dict__.get(key)
                if fn is None:
                    continue
                if id(fn) not in done:
                    done[id(fn)] = self._count_wrapper(name, fn)
                self._replace(cls, key, done[id(fn)])

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- reading ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """Per-name totals so far: {"calls": {...}, "self_s": {...}, counters}."""
        return {
            "calls": dict(zip(self.names, self.calls)),
            "self_s": dict(zip(self.names, self.self_s)),
            "counters": dict(self.counters),
        }

    def write(self, path):
        """All spans as parallel arrays; times relative to the first span."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        data = {
            "names": self.names,
            "name": list(self.span_name),
            "parent": list(self.span_parent),
            "start_s": [round(t - t0, 7) for t in self.span_start],
            "end_s": [round(t - t0, 7) for t in self.span_end],
        }
        with open(path, "w") as fh:
            json.dump(data, fh, separators=(",", ":"))


def delta(after: dict, before: dict) -> dict:
    """after - before, for two snapshots."""
    out = {}
    for part in ("calls", "self_s", "counters"):
        out[part] = {k: v - before[part].get(k, 0) for k, v in after[part].items()}
    return out
