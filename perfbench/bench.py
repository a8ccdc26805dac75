"""One benchmark run: set-up, timed rounds, checks, metrics.

Untraced (``trace=False``) the run reports the end-to-end metrics:

* setup_s: median over SETUP_REPEATS set-ups, each a fresh import of the
  package (and mpmath), parsing of the goldens and seeded inputs, and curve
  construction;
* wall_s: median over rounds of one round's operations, checks left out;
* peak_rss_mb: peak resident memory, read before the checks import sympy;
* out_coeff_bits: bits of the largest exact rational among the first
  round's outputs.

Both times are quiet-machine seconds (see speed.py); the raw medians go to
the report.  Rounds repeat until the next one would end past ``seconds``,
and at least one runs.  Every round runs the same operations, so failures
are the same share of attempts in every run.

Traced (``trace=True``) the run times one untraced round, then sets up and
runs rounds with the Tracer installed, and reports the per-layer metrics:
per set-up for parse, per round for the rest, and trace.overhead, the
traced round's time over the untraced one's.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
import traceback
from pathlib import Path
from typing import NamedTuple

from . import checks as ck
from .speed import SpeedProbe
from .tracing import Tracer, delta
from .workloads import WORKLOADS, import_package

SETUP_REPEATS = 11

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"), ("out_coeff_bits", "bits"))

# per-layer metric -> (kind, source): "calls"/"self_s" of a span name, a
# counter, or a special value; parse is read from the set-up phase
PER_LAYER = {
    "parse.parse_poly.calls": ("setup_calls", "parse.parse_poly"),
    "parse.parse_poly.self_s": ("setup_self_s", "parse.parse_poly"),
    "scalars.fraction_ops": ("counter", "scalars.fraction_ops"),
    "scalars.quadext_ops": ("counter", "scalars.quadext_ops"),
    "scalars.branchext_ops": ("counter", "scalars.branchext_ops"),
    "poly.mul.calls": ("calls", "poly.mul"),
    "poly.mul.self_s": ("self_s", "poly.mul"),
    "poly.exact_divide.calls": ("calls", "poly.exact_divide"),
    "poly.exact_divide.self_s": ("self_s", "poly.exact_divide"),
    "poly.resultant.self_s": ("self_s", "poly.resultant"),
    "poly.det_fraction_free.self_s": ("self_s", "poly.det_fraction_free"),
    "poly.discriminant.self_s": ("self_s", "poly.discriminant"),
    "poly.poly_gcd.calls": ("calls", "poly.poly_gcd"),
    "poly.poly_gcd.self_s": ("self_s", "poly.poly_gcd"),
    "poly.poly_gcd.max_in_bits": ("gcd_bits", None),
    "poly.rf_new.calls": ("calls", "poly.rf_new"),
    "poly.rf_new.self_s": ("self_s", "poly.rf_new"),
    "series.mul.calls": ("calls", "series.mul"),
    "series.mul.self_s": ("self_s", "series.mul"),
    "series.inverse.self_s": ("self_s", "series.inverse"),
    "series.sqrt.self_s": ("self_s", "series.sqrt"),
    "curve.frame.calls": ("calls", "curve.frame"),
    "curve.frame.self_s": ("self_s", "curve.frame"),
    "curve.order_at.calls": ("calls", "curve.order_at"),
    "curve.order_at.self_s": ("self_s", "curve.order_at"),
    "curve.residue.self_s": ("self_s", "curve.residue"),
    "curve.ladder_retries": ("counter", "curve.ladder_retries"),
    "curve.divisor_of.self_s": ("self_s", "curve.divisor_of"),
    "curve.coprime_basis.self_s": ("self_s", "curve.coprime_basis"),
    "curve.j_invariant.self_s": ("self_s", "curve.j_invariant"),
    "mp.mp_differential.calls": ("calls", "mp.mp_differential"),
    "mp.mp_differential.self_s": ("self_s", "mp.mp_differential"),
    "numeric.poly_roots.calls": ("calls", "numeric.poly_roots"),
    "numeric.poly_roots.self_s": ("self_s", "numeric.poly_roots"),
    "trace.overhead": ("overhead", None),
}


def per_layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith("max_in_bits"):
        return "bits"
    if name == "trace.overhead":
        return "ratio"
    return "count"


class OpRecord(NamedTuple):
    name: str
    t0: float
    t1: float
    output: object  # kept for the first round only
    error: str | None
    digest: str | None


def run_rounds(ops, seconds: float, tracer: Tracer | None = None, max_rounds: int | None = None):
    """Whole rounds of ops until the next would end past ``seconds``."""
    rounds = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        gc.collect()
        r0 = time.perf_counter()
        done, rec = {}, []
        for op in ops:
            if tracer is not None:
                tracer.enter(tracer.name_id("op." + op.name))
            t0 = time.perf_counter()
            try:
                out, err = op.run(done), None
            except Exception:  # an operation that raises counts as failed
                out, err = None, traceback.format_exc(limit=4)
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.exit()
            done[op.name] = out
            rec.append(OpRecord(op.name, t0, t1, out, err, None))
        longest = max(longest, time.perf_counter() - r0)
        keep = not rounds
        rounds.append([
            r._replace(output=r.output if keep else None,
                       digest=ck.fingerprint(r.output) if r.error is None else None)
            for r in rec
        ])
        if max_rounds is not None and len(rounds) >= max_rounds:
            break
        if time.perf_counter() - start + longest > seconds:
            break
    return rounds


def check_rounds(ops, rounds):
    """(failed count, failure notes).  The first round's outputs are checked;
    a later round's output fails unless it is identical to the first's."""
    first = {r.name: r for r in rounds[0]}
    verdict = {}
    for op in ops:
        r = first[op.name]
        if r.error is not None:
            verdict[op.name] = "raised: " + r.error.strip().splitlines()[-1]
            continue
        try:
            op.check(r.output)
            verdict[op.name] = None
        except Exception as exc:  # a check that fails or breaks fails the op
            verdict[op.name] = "%s: %s" % (type(exc).__name__, exc)
    failed, notes = 0, {}
    for rnd in rounds:
        for r in rnd:
            ref = first[r.name]
            if r.error is not None:
                why = "raised: " + r.error.strip().splitlines()[-1]
            elif ref.error is not None or r.digest != ref.digest:
                why = "output differs from the first round's"
            else:
                why = verdict[r.name]
            if why:
                failed += 1
                notes.setdefault(r.name, why)
    return failed, notes


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _round_raw(rnd) -> float:
    return sum(r.t1 - r.t0 for r in rnd)


def run_untraced(wl, seconds: float):
    gc.collect()
    with SpeedProbe(wl.probe) as probe:
        windows = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            t0 = time.perf_counter()
            state = wl.build(import_package())
            windows.append((t0, time.perf_counter()))
        ops = wl.ops(state)
        rounds = run_rounds(ops, seconds)
    peak = _peak_rss_mb()
    quiet_all, raw_all = probe.quiet_seconds(windows)
    setup_raw = [probe.quiet_seconds([w])[1] for w in windows]
    setup_s = statistics.median(setup_raw) * quiet_all / raw_all
    round_quiet = [probe.quiet_seconds([(r.t0, r.t1) for r in rnd]) for rnd in rounds]
    failed, notes = check_rounds(ops, rounds)
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(q for q, _ in round_quiet),
        "peak_rss_mb": peak,
        "out_coeff_bits": max(ck.coeff_bits(r.output) for r in rounds[0]),
    }
    per_op = {}
    for j, op in enumerate(ops):
        per_op[op.name] = {
            "raw_s": statistics.median(rnd[j].t1 - rnd[j].t0 for rnd in rounds),
            "quiet_s": statistics.median(probe.quiet_seconds([(rnd[j].t0, rnd[j].t1)])[0]
                                         for rnd in rounds),
        }
    report = {
        "rounds": len(rounds),
        "setup_raw_median_s": statistics.median(setup_raw),
        "round_raw_s": [raw for _, raw in round_quiet],
        "round_quiet_s": [q for q, _ in round_quiet],
        "per_op": per_op,
        "probe": probe.summary(),
        "failures": notes,
    }
    return metrics, len(rounds) * len(ops), failed, report


def run_traced(wl, seconds: float, spans_path: Path | None):
    ops = wl.ops(wl.build(import_package()))
    reference = run_rounds(ops, seconds, max_rounds=1)
    tracer = Tracer()
    try:
        m = import_package()
        tracer.instrument(m)
        state = wl.build(m)
        after_setup = tracer.snapshot()
        tracer.gcd_max_bits = 0
        traced_ops = wl.ops(state)
        rounds = run_rounds(traced_ops, seconds, tracer=tracer)
        after_rounds = tracer.snapshot()
    finally:
        tracer.uninstall()
    if spans_path is not None:
        tracer.write(spans_path)
    n = len(rounds)
    per_round = delta(after_rounds, after_setup)
    overhead = statistics.median(_round_raw(r) for r in rounds) / _round_raw(reference[0])
    metrics = {}
    for name, (kind, src) in PER_LAYER.items():
        if kind == "setup_calls":
            val = after_setup["calls"].get(src, 0)
        elif kind == "setup_self_s":
            val = after_setup["self_s"].get(src, 0.0)
        elif kind == "counter":
            val = per_round["counters"].get(src, 0) / n
        elif kind == "gcd_bits":
            val = tracer.gcd_max_bits
        elif kind == "overhead":
            val = overhead
        else:
            val = per_round[kind].get(src, 0) / n
        metrics[name] = val
    f_ref, notes_ref = check_rounds(ops, reference)
    f_traced, notes = check_rounds(traced_ops, rounds)
    notes.update(notes_ref)
    report = {
        "rounds": n,
        "reference_round_raw_s": _round_raw(reference[0]),
        "traced_round_raw_s": [_round_raw(r) for r in rounds],
        "spans": len(tracer.span_name),
        "missing_targets": tracer.missing,
        "per_round": {k: {n_: v / n for n_, v in per_round[k].items() if v}
                      for k in ("calls", "self_s", "counters")},
        "setup": {k: {n_: v for n_, v in after_setup[k].items() if v}
                  for k in ("calls", "self_s", "counters")},
        "failures": notes,
    }
    attempted = (len(reference) + n) * len(ops)
    return metrics, attempted, f_ref + f_traced, report


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path):
    """(result, report): result is the JSON object run.py prints last."""
    wl = WORKLOADS[workload](seed)
    stem = "%s-seed%d-trace%d" % (workload, seed, int(trace))
    out_dir.mkdir(parents=True, exist_ok=True)
    if trace:
        metrics, attempted, failed, report = run_traced(wl, seconds, out_dir / (stem + ".spans.json"))
        units = {k: per_layer_unit(k) for k in metrics}
    else:
        metrics, attempted, failed, report = run_untraced(wl, seconds)
        units = dict(END_TO_END)
    result = {
        # a check that fails counts its operation as failed, so the outputs
        # of the operations that did not fail are correct
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    report.update(workload=workload, seed=seed, seconds=seconds, trace=trace, result=result)
    (out_dir / (stem + ".json")).write_text(json.dumps(report, indent=1, default=str))
    return result, report
