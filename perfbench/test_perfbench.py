"""Fast tests of the benchmark itself.

Each workload runs one round at a small size and passes its checks, and
each check rejects a corrupted output.  Run with

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import shutil
import signal
import subprocess
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

import pytest

from perfbench import checks as ck
from perfbench.bench import PER_LAYER, check_rounds, run_rounds, run_traced
from perfbench.speed import SpeedProbe
from perfbench.workloads import Certify, Eliminate, Expand, _cert_polys, import_package

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module", autouse=True)
def restore_package_modules():
    """import_package swaps mpbelyi and mpmath in sys.modules; give other
    test modules back the ones they imported."""
    def ours():
        return {k: v for k, v in sys.modules.items() if k.split(".")[0] in ("mpbelyi", "mpmath")}

    saved = ours()
    yield
    for k in ours():
        del sys.modules[k]
    sys.modules.update(saved)


def one_round(wl):
    ops = wl.ops(wl.build(import_package()))
    rounds = run_rounds(ops, 0.0)
    return ops, {r.name: r.output for r in rounds[0]}, rounds


def rejects(op, output):
    with pytest.raises(ck.CheckFailed):
        op.check(output)


def bumped(poly, delta=1):
    """The polynomial with its leading-exponent coefficient changed."""
    e = max(poly.terms)
    return type(poly)(poly.dom, poly.vars, {**poly.terms, e: poly.terms[e] + delta})


def with_entry(div, i, entry):
    entries = list(div.entries)
    entries[i] = entry
    return types.SimpleNamespace(entries=entries)


# -- eliminate ------------------------------------------------------------------


@pytest.fixture(scope="module")
def eliminate():
    return one_round(Eliminate(seed=3, small=True))


def test_eliminate_round_passes(eliminate):
    ops, outs, rounds = eliminate
    assert check_rounds(ops, rounds) == (0, {})
    assert set(outs) == {"resultant_F3_H", "det_4x4", "discriminant_F3", "resultant_F2_F3"}


def test_eliminate_checks_reject_changed_coefficients(eliminate):
    ops, outs, _ = eliminate
    for op in ops:
        rejects(op, bumped(outs[op.name]))


def test_eliminate_rejects_leftover_variable(eliminate):
    ops, outs, _ = eliminate
    op = next(o for o in ops if o.name == "resultant_F3_H")
    r = outs[op.name]
    rejects(op, type(r)(r.dom, r.vars, {**r.terms, (0, 1): Fraction(1)}))


# -- certify --------------------------------------------------------------------


@pytest.fixture(scope="module")
def certify():
    return one_round(Certify(seed=3, small=True))


def test_certify_round_passes(certify):
    ops, outs, rounds = certify
    assert check_rounds(ops, rounds) == (0, {})


def test_certify_checks_reject_corrupted_outputs(certify):
    ops, outs, _ = certify
    op = {o.name: o for o in ops}
    j = outs["j.plus"]
    rejects(op["j.plus"], j + 1)
    d = outs["div_beta.plus"]
    for i, e in enumerate(d.entries):
        # a changed multiplicity, and a generator with another root
        rejects(op["div_beta.plus"], with_entry(d, i, e[:2] + (e[2] + 1,)))
        if e[0] != "place":
            rejects(op["div_beta.plus"], with_entry(d, i, (e[0], bumped(e[1]), e[2])))
    d1 = outs["div_one_minus_beta.plus"]
    rejects(op["div_one_minus_beta.plus"], with_entry(d1, 0, d1.entries[0][:2] + (d1.entries[0][2] - 1,)))
    u = outs["mp_sq.plus"]
    doubled = types.SimpleNamespace(num=u.p.num.scale(2), den=u.p.den)
    rejects(op["mp_sq.plus"], types.SimpleNamespace(p=doubled, q=u.q))
    rejects(op["residue_inf.plus"], outs["residue_inf.plus"] + 1)
    rejects(op["order_x0.plus"], 2)
    rejects(op["cases.discriminant"], bumped(outs["cases.discriminant"]))
    roots = outs["cases.roots"]
    rejects(op["cases.roots"], [roots[0] * 1.001, roots[1]])


def test_certify_operator_divisor_check():
    """The check of div(MP((x-3)/D)) (too slow to run here) on divisors made
    by hand: either grouping of the simple poles passes, a changed
    multiplicity or a missing point does not."""
    m = import_package()
    dom = m.poly.QuadDomain(105)

    def px(text):
        return m.parse.parse_poly(text.replace("g", "(45*sqrt(105))"), ("x",), dom=dom)

    inf = types.SimpleNamespace(kind="infinite_ramified")
    base = [("cluster_ram", px(m.goldens.CERT_MODEL_F), 2),
            ("cluster_both", px("64*x-105+g"), -2),
            ("place", inf, 2)]
    grouped = base + [("cluster_both", px("(x-3)*(63*x-102+g)"), -1)]
    split = base + [("cluster_both", px("x-3"), -1), ("cluster_both", px("126*x-204+2*g"), -1)]
    polys = _cert_polys(1)
    check = Certify._check_div_mp_lin
    check(types.SimpleNamespace(entries=grouped), polys)
    check(types.SimpleNamespace(entries=split), polys)
    with pytest.raises(ck.CheckFailed):
        check(types.SimpleNamespace(entries=grouped[:-1] + [grouped[-1][:2] + (-2,)]), polys)
    with pytest.raises(ck.CheckFailed):
        check(types.SimpleNamespace(entries=split[:-1]), polys)


# -- expand ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def expand():
    return one_round(Expand(seed=3, small=True))


def test_expand_round_passes(expand):
    ops, outs, rounds = expand
    assert check_rounds(ops, rounds) == (0, {})


def test_expand_checks_reject_corrupted_outputs(expand):
    ops, outs, _ = expand
    op = {o.name: o for o in ops}
    for name in ("frame.plus", "frame.minus", "frame.base"):
        fr = outs[name]
        for k in sorted(fr.y.coeffs)[:3] + sorted(fr.y.coeffs)[-1:]:
            coeffs = dict(fr.y.coeffs)
            coeffs[k] = coeffs[k] + 1
            y = types.SimpleNamespace(coeffs=coeffs, prec=fr.y.prec)
            rejects(op[name], types.SimpleNamespace(x=fr.x, y=y, dxdt=fr.dxdt))
    for name in outs:
        if name.startswith("order."):
            rejects(op[name], outs[name] + 1)


# -- machinery ------------------------------------------------------------------


def test_traced_run_reports_every_per_layer_metric():
    frac_add = Fraction.__add__
    metrics, attempted, failed, report = run_traced(Eliminate(seed=5, small=True), 0.0, None)
    assert set(metrics) == set(PER_LAYER)
    assert (attempted, failed) == (8, 0)
    assert metrics["poly.mul.calls"] > 0 and metrics["scalars.fraction_ops"] > 0
    assert metrics["parse.parse_poly.calls"] == 2 + 1 + 16
    assert report["missing_targets"] == []
    assert Fraction.__add__ is frac_add


def test_speed_probe_samples_and_restores_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe(period=0.01) as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            sum(range(1000))
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(probe.durations) >= 5
    quiet, raw = probe.quiet_seconds([(t0, t1)])
    assert 0 < raw < t1 - t0 and quiet > 0


def test_run_without_sources_fails_without_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if (ROOT / "BENCHMARK.json").exists():
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eliminate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
