"""Tests for the quadratic-differential operator on fixture curves.

Oracle values are hand computed on y^2 = x^3 + 1 with the degree-6 map
b = -x^3: there the operator collapses to the polynomial -9x, its residue
at the infinite place (a pole of order 6) is -36, and the inverse map has
residue -9 at each simple preimage of 0 (poles of order 3)."""

from fractions import Fraction

import pytest

from mpbelyi.curve import (
    CurveModel,
    RamifiedInfinitePlace,
    divisor_of,
    residue_of_quadratic_differential,
)
from mpbelyi.mp import mp_differential, mp_of_inverse
from mpbelyi.parse import parse_poly
from mpbelyi.poly import MultiPoly, QQ, RationalFunction


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
    with pytest.raises(ZeroDivisionError):
        mp_differential(zero)


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
