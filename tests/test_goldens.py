"""Exact facts from goldens.py, recomputed.

At the second affine point A2, where u = y - (1 + a/2*x + (b/2 - a^2/8)*x^2)
vanishes, the y-coordinate with b = ``B_VALUE`` times -2401 is ``F2``.
The survivor factor of the resultant stage, read as a quadratic in
t = a^2, has the discriminant 105*129357^2 and vanishes exactly at the two
conjugate values of a^2 that ``A_SQUARED_NUM``/``A_SQUARED_DEN`` give.  The
certification cubic has an exact j in Q(sqrt(105)) for each sign of g, the
two values conjugate, and each near its frozen decimal approximation.

The derivation's first values on the ansatz quartic with b = ``B_VALUE``
over Frac(Q[a,c]): u vanishes to order 3 at A1 = (0, 1) and simply at
A2, and the residues of u*omega^2 at the places over infinity are 49/24
(y ~ +x^2) and 1/24 (y ~ -x^2), in the ratio ``RESIDUE_RATIO``.
"""

from fractions import Fraction

import mpmath
import pytest

from mpbelyi import goldens as G
from mpbelyi.curve import CurveModel, j_invariant, order_at, residue_of_quadratic_differential
from mpbelyi.parse import parse_poly
from mpbelyi.poly import FractionFieldDomain, MultiPoly, QuadDomain, QQ, discriminant
from mpbelyi.scalars import QuadExt, to_bigfloat

K = QuadDomain(105)
AC = ("a", "c")
FRAC = FractionFieldDomain(QQ, AC)


def test_F2_is_minus_2401_times_y_at_A2():
    y = parse_poly(G.Y_SERIES_AT_BASEPOINT, ("a", "b", "x"))
    y_A2 = y.subs(
        {
            "a": parse_poly("a", AC),
            "b": parse_poly(G.B_VALUE, AC),
            "x": parse_poly(G.A2_X, AC),
        }
    )
    assert y_A2.scale(-2401) == parse_poly(G.F2, AC)


def in_x_over_frac(text):
    """A polynomial in x, a and c (with b = ``B_VALUE``) as one in x over
    Frac(Q[a,c])."""
    p = parse_poly(text.replace("b", "(%s)" % G.B_VALUE), AC + ("x",))
    by_x = {}
    for (ea, ec, ex), k in p.terms.items():
        by_x.setdefault((ex,), {})[(ea, ec)] = k
    return MultiPoly(FRAC, ("x",), {e: FRAC.coerce(MultiPoly(QQ, AC, t)) for e, t in by_x.items()})


def test_u_orders_at_A1_and_A2_and_residues_at_infinity():
    curve = CurveModel(in_x_over_frac("x^4+c*x^3+b*x^2+a*x+1"))
    y_A1 = in_x_over_frac(G.Y_SERIES_AT_BASEPOINT)
    u = curve.y() - curve.element(y_A1)
    x_A2 = FRAC.coerce(parse_poly(G.A2_X, AC))
    A2 = curve.point(x_A2, y0=y_A1.eval_scalars({"x": x_A2}))
    assert order_at(u, curve.point(0)) == 3
    assert order_at(u, A2) == 1
    plus, minus = curve.places_at_infinity()
    res_plus = residue_of_quadratic_differential(u, plus)
    res_minus = residue_of_quadratic_differential(u, minus)
    assert (str(plus), str(minus)) == ("(x=inf, branch +)", "(x=inf, branch -)")
    assert res_plus == FRAC.coerce(Fraction(49, 24)) and res_minus == FRAC.coerce(Fraction(1, 24))
    assert res_plus == res_minus * G.RESIDUE_RATIO


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
