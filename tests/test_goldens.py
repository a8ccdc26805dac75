"""Exact Q(sqrt(105)) facts from goldens.py, recomputed.

The survivor factor of the resultant stage, read as a quadratic in
t = a^2, has the discriminant 105*129357^2 and vanishes exactly at the two
conjugate values of a^2 that ``A_SQUARED_NUM``/``A_SQUARED_DEN`` give.  The
certification cubic has an exact j in Q(sqrt(105)) for each sign of g, the
two values conjugate, and each near its frozen decimal approximation.
"""

from fractions import Fraction

import mpmath
import pytest

from mpbelyi import goldens as G
from mpbelyi.curve import CurveModel, j_invariant
from mpbelyi.parse import parse_poly
from mpbelyi.poly import MultiPoly, QuadDomain, QQ, discriminant
from mpbelyi.scalars import QuadExt, to_bigfloat

K = QuadDomain(105)


def survivor_in_t():
    """The survivor factor, even in a, as a polynomial in t = a^2."""
    p = parse_poly(G.RESULTANT_FACTORS[G.SURVIVOR_FACTOR_INDEX], ("a",))
    assert all(k % 2 == 0 for (k,) in p.terms)
    return MultiPoly(QQ, ("t",), {(k // 2,): c for (k,), c in p.terms.items()})


def test_survivor_factor_in_a_squared():
    assert survivor_in_t() == parse_poly("5670*t^2-1439865*t+13942756", ("t",))


def test_survivor_discriminant_is_105_times_a_square():
    disc = discriminant(survivor_in_t(), "t")
    assert disc.is_constant() and disc.constant_value() == G.SURVIVOR_DISC
    assert G.SURVIVOR_DISC == G.SURVIVOR_FIELD_DISC * G.SURVIVOR_DISC_SQUARE_PART**2


@pytest.mark.parametrize("sign", [1, -1])
def test_survivor_vanishes_exactly_at_both_a_squared_values(sign):
    num, surd = G.A_SQUARED_NUM
    t0 = QuadExt(num, sign * surd, 105) / G.A_SQUARED_DEN
    p = MultiPoly(K, ("t",), {e: K.coerce(c) for e, c in survivor_in_t().terms.items()})
    value = p.eval_scalars({"t": t0})
    assert type(value) is QuadExt and value == 0


J_RAT = Fraction(12890231080604, 19297377225)
J_SURD = Fraction(6860794065341396, 108547746890625)


def cert_j(sign: int):
    g = "(%s%d*sqrt(%d))" % ("" if sign > 0 else "-", G.CERT_GAMMA_COEFF, G.CERT_FIELD_DISC)
    f = parse_poly(G.CERT_MODEL_F.replace("g", g), ("x",), dom=K)
    return j_invariant(CurveModel(f))


@pytest.mark.parametrize(
    "sign, approx", [(1, G.CERT_J_PLUS_APPROX), (-1, G.CERT_J_MINUS_APPROX)]
)
def test_certification_j_is_exact_and_near_its_approximation(sign, approx):
    j = cert_j(sign)
    assert j == QuadExt(J_RAT, sign * J_SURD, 105)
    assert abs(to_bigfloat(j) - mpmath.mpf(approx)) < G.CERT_J_TOLERANCE


def test_certification_j_values_are_conjugate():
    assert cert_j(1).conj() == cert_j(-1)
