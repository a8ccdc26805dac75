"""Floating-point layer: roots, Newton polish, clustering, and critical
values of maps on hyperelliptic models."""

import random
from fractions import Fraction

import mpmath
import pytest

from mpbelyi.curve import BranchExtDomain
from mpbelyi.numeric import (
    cluster,
    critical_values,
    dense_coeffs,
    eval_poly,
    newton_polish_pair,
    poly_roots,
)
from mpbelyi.parse import parse_poly
from mpbelyi.poly import QQ, MultiPoly, QuadDomain
from mpbelyi.scalars import QuadExt, to_bigfloat


def close(a, b, eps=1e-25):
    return abs(mpmath.mpc(a) - mpmath.mpc(b)) < eps


class TestScalarConversion:
    def test_rational_and_quadratic(self):
        assert close(to_bigfloat(Fraction(1, 3), 128), mpmath.mpf(1) / 3, 1e-35)
        v = to_bigfloat(QuadExt(2, 1, 105), 128)
        with mpmath.workprec(160):
            want = 2 + mpmath.sqrt(105)
        assert close(v, want, 1e-35)

    def test_branch_extension_real_and_imaginary(self):
        dom = BranchExtDomain(QQ, Fraction(2))
        w = dom.w()
        val = to_bigfloat(w * w + w, 128)
        with mpmath.workprec(160):
            want = 2 + mpmath.sqrt(2)
        assert close(val, want, 1e-35)
        neg = BranchExtDomain(QQ, Fraction(-4))
        v2 = to_bigfloat(neg.w(), 128)
        assert close(v2, mpmath.mpc(0, 2), 1e-35)

    def test_branch_extension_over_quadratic_base(self):
        k = QuadDomain(105)
        dom = BranchExtDomain(k, QuadExt(1, 1, 105))
        v = to_bigfloat(dom.w(), 192)
        with mpmath.workprec(224):
            want = mpmath.sqrt(1 + mpmath.sqrt(105))
        assert close(v, want, 1e-50)


class TestRootsAndPolish:
    def test_dense_coeffs_order(self):
        p = parse_poly("3*x^2-5", ("x",))
        cs = dense_coeffs(p, "x", 64)
        assert [int(c) for c in cs] == [3, 0, -5]

    def test_poly_roots_quartic(self):
        p = parse_poly("x^4-5*x^2+6", ("x",))
        roots = sorted(poly_roots(p, "x", 128), key=lambda z: mpmath.mpf(z.real))
        with mpmath.workprec(160):
            want = [-mpmath.sqrt(3), -mpmath.sqrt(2), mpmath.sqrt(2), mpmath.sqrt(3)]
        for got, expect in zip(roots, want):
            assert close(got, expect, 1e-30)

    def test_eval_poly_matches_exact(self):
        p = parse_poly("x^3*y-7/2*x+y^2", ("x", "y"))
        exact = p.eval_scalars({"x": Fraction(3, 2), "y": Fraction(-1, 4)})
        approx = eval_poly(p, {"x": mpmath.mpf(3) / 2, "y": mpmath.mpf(-1) / 4}, 128)
        assert close(approx, to_bigfloat(exact, 128), 1e-30)

    def test_newton_polish_recovers_circle_line_intersection(self):
        f = parse_poly("x^2+y^2-2", ("x", "y"))
        g = parse_poly("x-y", ("x", "y"))
        pt, resid = newton_polish_pair(f, g, {"x": 1.2, "y": 0.8}, bits=192)
        assert close(pt["x"], 1, 1e-50)
        assert close(pt["y"], 1, 1e-50)
        assert resid < mpmath.mpf(2) ** -180

    def test_newton_polish_quadratic_surd_pair(self):
        # root (sqrt(2), sqrt(3)) of x^2-2, y^2-3
        f = parse_poly("x^2-2", ("x", "y"))
        g = parse_poly("y^2-3", ("x", "y"))
        pt, resid = newton_polish_pair(f, g, {"x": 1.4, "y": 1.7}, bits=256)
        with mpmath.workprec(288):
            assert close(pt["x"], mpmath.sqrt(2), mpmath.mpf(2) ** -250)
            assert close(pt["y"], mpmath.sqrt(3), mpmath.mpf(2) ** -250)
        assert resid < mpmath.mpf(2) ** -240


class TestCluster:
    def test_groups_and_orders(self):
        vals = [1.0, 1.0 + 1e-12, 0.0, 1e-13, 1.0 - 1e-12, 5.0]
        got = cluster(vals, 1e-9)
        assert [m for _, m in got] == [3, 2, 1]
        assert close(got[0][0], 1, 1e-9)
        assert close(got[1][0], 0, 1e-9)
        assert close(got[2][0], 5, 1e-9)

    def test_random_perturbations_recluster(self):
        rng = random.Random(4407)
        centers = [complex(0, 0), complex(1, 0), complex(-2, 3)]
        vals = []
        for _ in range(60):
            c = rng.choice(centers)
            vals.append(c + complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 1e-11)
        got = cluster(vals, 1e-8)
        assert len(got) == 3
        assert sum(m for _, m in got) == 60


class TestCriticalValues:
    def setup_method(self):
        self.f = parse_poly("x^3+1", ("x",))

    def test_degree6_map_has_values_zero_and_one(self):
        a_part = parse_poly("-x^3", ("x",))
        b_part = MultiPoly.zero(QQ, ("x",))
        got = critical_values(self.f, a_part, b_part, "x", 128)
        centers = sorted(mpmath.mpf(z.real) for z, _ in got)
        assert len(got) == 2
        assert close(centers[0], 0, 1e-20)
        assert close(centers[1], 1, 1e-20)

    def test_y_coordinate_has_values_plus_minus_one(self):
        a_part = MultiPoly.zero(QQ, ("x",))
        b_part = MultiPoly.const(QQ, ("x",), Fraction(1))
        got = critical_values(self.f, a_part, b_part, "x", 128)
        vals = sorted(mpmath.mpf(z.real) for z, _ in got)
        assert len(got) == 2
        assert close(vals[0], -1, 1e-20)
        assert close(vals[1], 1, 1e-20)

    def test_perturbed_map_is_not_two_valued(self):
        a_part = parse_poly("-x^3+x", ("x",))
        b_part = MultiPoly.zero(QQ, ("x",))
        got = critical_values(self.f, a_part, b_part, "x", 128)
        finite = [z for z, _ in got]
        assert len(finite) > 2

    def test_mixed_sheet_map(self):
        # g = x + y on y^2 = x^3 + 1: critical where y*1 + f'/2 = 0
        a_part = parse_poly("x", ("x",))
        b_part = MultiPoly.const(QQ, ("x",), Fraction(1))
        got = critical_values(self.f, a_part, b_part, "x", 128)
        # dg = (y + (3/2)x^2) dx / y; zeros satisfy y = -(3/2)x^2,
        # so x^3 + 1 = (9/4)x^4 on those sheets
        quart = parse_poly("9/4*x^4-x^3-1", ("x",))
        expected = []
        for x0 in poly_roots(quart, "x", 160):
            with mpmath.workprec(192):
                y0 = -mpmath.mpf(3) / 2 * x0 * x0
                expected.append(x0 + y0)
        want = cluster(expected, mpmath.mpf(10) ** -30)
        assert len(got) == len(want)
        got_sorted = sorted(
            (z for z, _ in got), key=lambda z: (mpmath.mpf(z.real), mpmath.mpf(z.imag))
        )
        want_sorted = sorted(
            (z for z, _ in want), key=lambda z: (mpmath.mpf(z.real), mpmath.mpf(z.imag))
        )
        for gz, wz in zip(got_sorted, want_sorted):
            assert close(gz, wz, 1e-20)

    def test_constant_map_rejected(self):
        a_part = MultiPoly.const(QQ, ("x",), Fraction(1, 2))
        b_part = MultiPoly.zero(QQ, ("x",))
        with pytest.raises(ValueError):
            critical_values(self.f, a_part, b_part, "x", 64)
