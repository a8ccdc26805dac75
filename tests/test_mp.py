"""Tests for the quadratic-differential operator on fixture curves.

Oracle values are hand computed on y^2 = x^3 + 1 with the degree-6 map
b = -x^3: there the operator collapses to the polynomial -9x, its residue
at the infinite place (a pole of order 6) is -36, and the inverse map has
residue -9 at each simple preimage of 0 (poles of order 3).

``mp_differential`` works on the polynomials of P and Q; the composition of
field operations it replaced is kept here as ``reference_mp_differential``."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_curve import AGREEMENT_CURVES, PROPS, cert_poly, element_parts, plain_elements, small_q

from mpbelyi import goldens as G
from mpbelyi import poly as poly_module
from mpbelyi.curve import (
    CurveModel,
    RamifiedInfinitePlace,
    divisor_of,
    residue_of_quadratic_differential,
)
from mpbelyi.mp import mp_differential, mp_of_inverse
from mpbelyi.parse import parse_poly
from mpbelyi.poly import MultiPoly, QQ, RationalFunction
from mpbelyi.scalars import QuadExt


@pytest.fixture
def cubic():
    return CurveModel(parse_poly("x^3+1", ("x",)))


def beta0(curve):
    return -(curve.x() ** 3)


def test_operator_closed_form_on_degree6_map(cubic):
    u = mp_differential(beta0(cubic))
    expect = cubic.element(RationalFunction(parse_poly("-9*x", ("x",))))
    assert u == expect


def test_operator_symmetry_under_one_minus(cubic):
    b = beta0(cubic)
    assert mp_differential(b) == mp_differential(1 - b)
    w = cubic.y() + cubic.x() ** 2
    assert mp_differential(w) == mp_differential(1 - w)


def test_inverse_map_identity(cubic):
    b = beta0(cubic)
    assert mp_of_inverse(b) == mp_differential(b.inverse())
    w = cubic.y() + cubic.x() ** 2
    assert mp_of_inverse(w) == mp_differential(w.inverse())


def test_operator_on_constants(cubic):
    half = cubic.element(RationalFunction(MultiPoly.const(QQ, ("x",), Fraction(1, 2))))
    assert not mp_differential(half)
    zero = cubic.element(RationalFunction(MultiPoly.zero(QQ, ("x",))))
    one = cubic.element(RationalFunction(MultiPoly.const(QQ, ("x",), Fraction(1))))
    for b in (zero, one):
        with pytest.raises(ZeroDivisionError):
            mp_differential(b)


def reference_mp_differential(beta):
    """(d beta/omega)^2 * (beta - beta^2)^-1 in the function field, with
    d beta/omega = (f*Q' + f'*Q/2) + y*P'."""
    denom = beta - beta * beta
    if not denom:
        raise ZeroDivisionError("the operator is undefined at constants 0 and 1")
    curve = beta.curve
    fp = RationalFunction(curve.f.derivative("x"))
    dd = curve.element(
        curve.radicand * beta.q.derivative("x") + fp * beta.q * Fraction(1, 2),
        beta.p.derivative("x"),
    )
    return dd * dd * denom.inverse()


# curve, coefficients, most terms of a polynomial in a part.  The reference
# is slow over Q(sqrt(105)): on a 2-vCPU x86-64 host it took 5.7 s for 40
# examples on the certification curve with r + s*sqrt(105), |r|, |s| <= 3,
# and 2.9 s with these coefficients, so the tests below draw 20 or fewer.
OPERATOR_CURVES = {
    "cubic": (AGREEMENT_CURVES["cubic"][0], small_q, 2),
    "quartic": (AGREEMENT_CURVES["quartic"][0], small_q, 2),
    "certification": (
        AGREEMENT_CURVES["certification"][0],
        st.builds(lambda r, s: QuadExt(r, s, G.CERT_FIELD_DISC), st.integers(-2, 2), st.integers(-1, 1)),
        2,
    ),
}


def not_0_or_1(elems):
    return elems.filter(lambda b: b and b != 1)


@pytest.mark.parametrize("name", sorted(OPERATOR_CURVES))
def test_operator_agrees_with_the_field_composition(name):
    curve, coeffs, terms = OPERATOR_CURVES[name]

    @settings(PROPS, max_examples=20)
    @given(not_0_or_1(plain_elements(curve, coeffs, terms)))
    def check(beta):
        # equal parts have equal num and den: both are in normal form
        assert mp_differential(beta) == reference_mp_differential(beta)

    check()


@pytest.mark.parametrize("name", ["cubic", "quartic"])
def test_operator_laws(name):
    # 1/beta has the norm P^2 - f*Q^2 in its denominators, so its operator is
    # slow: with parts of degree 1 over degree 1, 40 examples took 5.4 s
    curve, coeffs, terms = OPERATOR_CURVES[name]
    poly, _ = element_parts(curve, coeffs, terms)

    @settings(PROPS, max_examples=15)
    @given(not_0_or_1(st.builds(curve.element, poly, poly)))
    def check(beta):
        assert mp_differential(1 - beta) == mp_differential(beta)
        assert mp_of_inverse(beta) == mp_differential(beta.inverse())

    check()


def test_operator_builds_one_rational_function_per_part(monkeypatch):
    # the field composition normalises 37 intermediate rational functions
    curve = AGREEMENT_CURVES["certification"][0]
    beta = curve.element(RationalFunction(cert_poly(G.CERT_N0_NUM), cert_poly(G.CERT_N0_DEN)))
    built = []
    normalize = poly_module._rf_normalize

    def counted(num, den):
        built.append(num)
        return normalize(num, den)

    monkeypatch.setattr(poly_module, "_rf_normalize", counted)
    u = mp_differential(beta)
    monkeypatch.undo()
    assert len(built) == 2
    assert u == reference_mp_differential(beta)


def test_residue_at_order6_pole_is_minus_36(cubic):
    u = mp_differential(beta0(cubic))
    inf = cubic.places_at_infinity()[0]
    assert residue_of_quadratic_differential(u, inf) == -36


def test_inverse_residues_at_order3_poles(cubic):
    u2 = mp_of_inverse(beta0(cubic))
    for branch in (1, -1):
        pl = cubic.point(0, branch=branch)
        assert residue_of_quadratic_differential(u2, pl) == -9


def test_operator_divisor_shape(cubic):
    u = mp_differential(beta0(cubic))
    d = divisor_of(u)
    assert d.degree() == 0
    kinds = sorted(e[0] for e in d.entries)
    assert kinds == ["cluster_both", "place"]
    [(k1, g, m)] = [e for e in d.entries if e[0] == "cluster_both"]
    assert g == parse_poly("x", ("x",)) and m == 1
    [(k2, pl, mult)] = [e for e in d.entries if e[0] == "place"]
    assert isinstance(pl, RamifiedInfinitePlace) and mult == -2


def test_composite_clean_map(cubic):
    # z = 4 b (1 - b) doubles the degree and makes every preimage of 1 double
    b = beta0(cubic)
    z = (4 * b) * (1 - b)
    dz = divisor_of(z)
    assert dz.degree() == 0
    both = [e for e in dz.entries if e[0] == "cluster_both"]
    assert len(both) == 1 and both[0][2] == 3
    ram = [e for e in dz.entries if e[0] == "cluster_ram"]
    assert len(ram) == 1 and ram[0][2] == 2
    dz1 = divisor_of(z - 1)
    ram1 = [e for e in dz1.entries if e[0] == "cluster_ram"]
    assert not ram1
    both1 = [e for e in dz1.entries if e[0] == "cluster_both"]
    assert len(both1) == 1
    assert both1[0][1] == parse_poly("2*x^3+1", ("x",)).primitive()[1]
    assert both1[0][2] == 2
    inf = cubic.places_at_infinity()[0]
    assert residue_of_quadratic_differential(mp_differential(z), inf) == -144
    assert mp_differential(z) == mp_differential(1 - z)
