"""Geometry layer tests: branch extensions, local frames, orders, divisors,
and j-invariants, anchored on small fixture curves."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mpbelyi.curve import (
    _PREC_LADDER,
    AffinePlace,
    BranchExt,
    BranchExtDomain,
    CurveModel,
    InfinitePlace,
    RamifiedAffinePlace,
    RamifiedInfinitePlace,
    coprime_basis,
    divisor_of,
    j_invariant,
    j_invariant_cubic,
    j_invariant_quartic,
    local_series,
    order_at,
    residue_of_quadratic_differential,
)
from mpbelyi.parse import parse_poly
from mpbelyi.poly import MultiPoly, QQ, QuadDomain, RationalFunction
from mpbelyi.scalars import QuadExt
from mpbelyi.series import MAX_TRUNCATION, LaurentSeries

PROPS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
small_q = st.fractions(min_value=-9, max_value=9, max_denominator=4)


def curve_of(text, dom=None):
    return CurveModel(parse_poly(text, ("x",), dom=dom))


E_CUBIC = "x^3+1"
E_QUARTIC = "x^4+1"


# -- branch extensions ---------------------------------------------------------


def test_branchext_is_a_field():
    ext = BranchExtDomain(QQ, Fraction(2))
    w = ext.w()
    one = ext.one
    a = one + w
    b = one - w
    assert a * b == ext.coerce(-1)
    assert (a / b) * b == a
    inv = a.inverse()
    assert a * inv == one
    with pytest.raises(ZeroDivisionError):
        ext.zero.inverse()


def test_branchext_over_quadratic_field():
    base = QuadDomain(105)
    rad = QuadExt(595, -23, 105)
    ext = BranchExtDomain(base, rad)
    w = ext.w()
    assert w * w == ext.coerce(rad)
    z = ext.coerce(QuadExt(2, 1, 105)) + w
    assert z * z.inverse() == ext.one


def test_branchext_hash_agrees_with_eq():
    ext = BranchExtDomain(QQ, Fraction(7))
    x = ext.coerce(3)
    assert x == Fraction(3) and hash(x) == hash(Fraction(3))
    assert Fraction(3) in {x} and x in {3}
    z = x + ext.w() * Fraction(1, 2)
    assert hash(z) == hash(ext.coerce(Fraction(6, 2)) + ext.w() / 2)
    quad = BranchExtDomain(QuadDomain(105), QuadExt(595, -23, 105))
    assert QuadExt(2, 0, 105) in {quad.coerce(2)}


def test_branchext_sqrt_recognizes_radicand_multiples():
    ext = BranchExtDomain(QQ, Fraction(3))
    r = ext.sqrt(ext.coerce(12))
    assert r is not None and r * r == ext.coerce(12)
    assert ext.sqrt(ext.coerce(5)) is None
    assert ext.sqrt(ext.coerce(Fraction(9, 4))) == ext.coerce(Fraction(3, 2))


W7 = BranchExtDomain(QQ, Fraction(7))
WQ = BranchExtDomain(QuadDomain(105), QuadExt(595, -23, 105))
quad = st.builds(lambda r, s: QuadExt(r, s, 105), small_q, small_q)
branch_elements = st.one_of(
    st.builds(lambda a, b: BranchExt(a, b, W7), small_q, small_q),
    st.builds(lambda a, b: BranchExt(a, b, WQ), quad, quad),
)


@PROPS
@given(branch_elements)
def test_branchext_sqrt_finds_every_square(z):
    ext = z.ext
    r = ext.sqrt(z * z)
    assert r is not None and (r == z or r == -z)
    if z:
        # w and 3 are not squares in either field; 3*z^2 has a square norm
        assert ext.sqrt(z * z * ext.w()) is None
        assert ext.sqrt(z * z * 3) is None


def test_series_sqrt_over_a_branch_field_with_a_w_part():
    w = W7.w()
    s = LaurentSeries(W7, {0: (1 + w) * (1 + w), 1: w}, 8)
    r = s.sqrt()
    assert r.coefficient_of(0) in (1 + w, -1 - w)
    assert r * r == s and r.prec == s.prec


# -- model validation ------------------------------------------------------------


def test_curve_rejects_bad_degrees_and_singular_models():
    with pytest.raises(ValueError):
        curve_of("x^2+1")
    with pytest.raises(ValueError):
        curve_of("x^5+x+1")
    with pytest.raises(ValueError):
        curve_of("x^3-3*x+2")
    with pytest.raises(ValueError):
        curve_of("(x^2-1)^2")


def test_point_validation():
    c = curve_of(E_CUBIC)
    with pytest.raises(ValueError):
        c.point(0, y0=Fraction(2))
    p = c.point(-1)
    assert isinstance(p, RamifiedAffinePlace)
    q = c.point(0, branch=-1)
    assert isinstance(q, AffinePlace) and q.y0 == -1


# -- local frames ------------------------------------------------------------------


def frame_places(curve):
    out = []
    if curve.degree == 3:
        out.append(curve.point(0, branch=1))
        out.append(curve.point(-1))
        out.extend(curve.places_at_infinity())
    else:
        out.append(curve.point(0, branch=1))
        out.extend(curve.places_at_infinity())
    return out


@pytest.mark.parametrize("ftext", [E_CUBIC, E_QUARTIC])
def test_frames_satisfy_curve_equation(ftext):
    c = curve_of(ftext)
    for place in frame_places(c):
        fr = place.frame(14)
        coeffs = c.f.univariate_coeffs("x")
        f_ser = None
        for k, co in reversed(list(enumerate(coeffs))):
            term = fr.x**k * fr.dom.coerce(co)
            f_ser = term if f_ser is None else f_ser + term
        diff = fr.y * fr.y - f_ser
        assert not diff, "y^2 != f(x) at %s" % place


def test_frame_with_extension_satisfies_curve_equation():
    c = curve_of(E_CUBIC)
    place = c.point(1)  # f(1)=2 is not a rational square
    fr = place.frame(12)
    f_ser = fr.x ** 3 + fr.dom.one
    assert not (fr.y * fr.y - f_ser)
    assert fr.y.coefficient_of(0) == fr.dom.w()


# window of x(t), dx/dt and y(t) beyond the requested precision, by kind
WINDOW = {"affine": 0, "affine_ramified": 0, "infinite": 6, "infinite_ramified": 8}


def law_places(dom):
    """Each place type twice: with frames over dom and over a branch field
    of dom.  On y^2 = x^3 + 2x^2 - 3x, f(3) = 36 and f'(1) = 4 are squares
    and f(2) = 10 and f'(0) = -3 are not; at infinity the leading
    coefficient 1 is a square and 2 is not."""
    a = curve_of("x^3+2*x^2-3*x", dom)
    return [
        a.point(3), a.point(3, branch=-1), a.point(2), a.point(2, branch=-1),
        a.point(1), a.point(0),
        *a.places_at_infinity(),
        *curve_of("2*x^3+1", dom).places_at_infinity(),
        *curve_of("x^4+1", dom).places_at_infinity(),
        *curve_of("2*x^4+1", dom).places_at_infinity(),
    ]


@pytest.mark.parametrize("dom", [QQ, QuadDomain(105)], ids=["QQ", "Q(sqrt105)"])
def test_frame_laws_for_every_place_type(dom):
    places = law_places(dom)
    seen = set()
    for p in places:
        fr = p.frame(10)
        # an extension of dom or dom itself; Q(sqrt(105)) is a BranchExtDomain too
        seen.add((p.kind, fr.dom != dom))
        assert fr.dom == p.edom and (fr.dom == dom or fr.dom.base == dom)
        assert fr.x.prec == fr.dxdt.prec == 10 + WINDOW[p.kind]
        derivative = {k - 1: c * k for k, c in fr.x.coeffs.items() if k}
        assert fr.dxdt.coeffs == derivative
        f_ser = LaurentSeries.zero(fr.dom, MAX_TRUNCATION)
        for k, c in enumerate(p.curve.f.univariate_coeffs("x")):
            f_ser = f_ser + fr.x**k * c
        assert not (fr.y * fr.y - f_ser)
        if p.kind == "affine":
            assert fr.y.coefficient_of(0) == p.y0
        assert p.conjugate().conjugate() == p
    assert seen == {(kind, ext) for kind in WINDOW for ext in (False, True)}
    for i, p in enumerate(places):
        for j, q in enumerate(places):
            assert (p == q) == (i == j), (str(p), str(q))


def test_places_are_equal_by_type_curve_and_data():
    c = curve_of("x^3+2*x^2-3*x")
    assert c.point(3) == c.point(Fraction(3), y0=Fraction(6)) == c.point(3, branch=-1).conjugate()
    assert c.point(1) == c.point(1).conjugate() == RamifiedAffinePlace(c, Fraction(1))
    assert c.places_at_infinity() == curve_of("x^3+2*x^2-3*x").places_at_infinity()
    assert c.places_at_infinity() != curve_of("x^3+1").places_at_infinity()
    plus, minus = curve_of("x^4+1").places_at_infinity()
    assert plus.conjugate() == minus != plus


def test_place_methods_the_benchmark_counts_stay_in_each_class():
    # perfbench/tracing.py wraps only a class's own methods: moving these into
    # a base would silently empty curve.frame and scalars.branchext_ops
    for cls in (AffinePlace, RamifiedAffinePlace, InfinitePlace, RamifiedInfinitePlace):
        assert "frame" in vars(cls), cls
    for name in ("__add__", "__neg__", "__mul__", "inverse"):
        assert name in vars(BranchExt), name
    # and scalars.quadext_ops: QuadExt binds BranchExt's own functions, no copies
    for name in ("__add__", "__radd__", "__neg__", "__mul__", "__rmul__", "inverse"):
        assert vars(QuadExt)[name] is vars(BranchExt)[name], name


# -- orders -----------------------------------------------------------------------


def test_orders_on_cubic_fixture():
    c = curve_of(E_CUBIC)
    x = c.x()
    y = c.y()
    beta0 = -(x**3)
    p01 = c.point(0, branch=1)
    pm1 = c.point(-1)
    inf = c.places_at_infinity()[0]
    assert isinstance(inf, RamifiedInfinitePlace)
    assert order_at(beta0, p01) == 3
    assert order_at(beta0, pm1) == 0
    assert order_at(1 - beta0, pm1) == 2
    assert order_at(beta0, inf) == -6
    assert order_at(y, pm1) == 1
    assert order_at(y, inf) == -3
    assert order_at(x, inf) == -2
    assert order_at(x, p01) == 1


def test_order_at_extension_point():
    c = curve_of(E_CUBIC)
    place = c.point(1)
    x = c.x()
    y = c.y()
    assert order_at(x - 1, place) == 1
    assert order_at(y, place) == 0
    assert order_at(y * y - 2, place) == 1


def test_ladder_failure_names_every_rung():
    c = curve_of(E_CUBIC)
    place = c.point(2)  # unramified: y = 3
    t70 = (c.x() - 2) ** 70
    with pytest.raises(ArithmeticError) as order_err:
        order_at(t70, place)
    with pytest.raises(ArithmeticError) as residue_err:
        residue_of_quadratic_differential(1 / t70, place)
    for err, what in ((order_err, "vanished to the truncation"), (residue_err, "ZeroDivisionError")):
        msg = str(err.value)
        assert msg.count(what) == len(_PREC_LADDER) == 4
        for prec in _PREC_LADDER:
            assert "precision %d: %s" % (prec, what) in msg


def test_orders_on_quartic_fixture():
    c = curve_of(E_QUARTIC)
    x = c.x()
    y = c.y()
    plus, minus = c.places_at_infinity()
    assert order_at(x, plus) == -1
    assert order_at(y, plus) == -2
    # y/x^2 tends to +1 on the plus branch and -1 on the minus branch
    r = y * (x**2).inverse()
    assert order_at(r - 1, plus) >= 1
    assert order_at(r + 1, minus) >= 1


# -- divisors ----------------------------------------------------------------------


def entry_kinds(div):
    return sorted(e[0] for e in div.entries)


def find_entries(div, kind):
    return [e for e in div.entries if e[0] == kind]


def test_divisor_of_beta0():
    c = curve_of(E_CUBIC)
    beta0 = -(c.x() ** 3)
    d = divisor_of(beta0)
    assert d.degree() == 0
    both = find_entries(d, "cluster_both")
    assert len(both) == 1
    g, m = both[0][1], both[0][2]
    assert g == parse_poly("x", ("x",)) and m == 3
    places = find_entries(d, "place")
    assert len(places) == 1
    assert isinstance(places[0][1], RamifiedInfinitePlace)
    assert places[0][2] == -6


def test_divisor_of_one_minus_beta0_is_doubled():
    c = curve_of(E_CUBIC)
    beta0 = -(c.x() ** 3)
    d = divisor_of(1 - beta0)
    ram = find_entries(d, "cluster_ram")
    assert len(ram) == 1
    assert ram[0][1] == parse_poly("x^3+1", ("x",))
    assert ram[0][2] == 2
    assert d.degree() == 0


def test_divisor_of_y():
    c = curve_of(E_CUBIC)
    d = divisor_of(c.y())
    ram = find_entries(d, "cluster_ram")
    assert len(ram) == 1 and ram[0][2] == 1
    inf = find_entries(d, "place")
    assert len(inf) == 1 and inf[0][2] == -3
    assert d.degree() == 0


def test_divisor_branch_split_resolution():
    c = curve_of(E_CUBIC)
    d = divisor_of(1 + c.y())
    places = find_entries(d, "place")
    affine = [e for e in places if isinstance(e[1], AffinePlace)]
    assert len(affine) == 1
    pl, mult = affine[0][1], affine[0][2]
    assert c.dom.is_zero(pl.x0) and pl.y0 == -1
    assert mult == 3
    infs = [e for e in places if isinstance(e[1], RamifiedInfinitePlace)]
    assert infs and infs[0][2] == -3
    assert d.degree() == 0


def test_divisor_mixed_pole():
    c = curve_of(E_CUBIC)
    x, y = c.x(), c.y()
    d = divisor_of(y / x)
    both = find_entries(d, "cluster_both")
    assert both and both[0][1] == parse_poly("x", ("x",)) and both[0][2] == -1
    ram = find_entries(d, "cluster_ram")
    assert ram and ram[0][2] == 1
    assert d.degree() == 0


def test_divisor_degree_zero_random():
    rng = random.Random(280)
    c = curve_of(E_CUBIC)
    v = ("x",)
    for _ in range(12):
        while True:
            pn = [Fraction(rng.randrange(-3, 4)) for _ in range(3)]
            qn = [Fraction(rng.randrange(-3, 4)) for _ in range(2)]
            p = MultiPoly.from_univariate(QQ, "x", pn)
            q = MultiPoly.from_univariate(QQ, "x", qn)
            if p or q:
                break
        elem = c.element(RationalFunction(p), RationalFunction(q))
        assert divisor_of(elem).degree() == 0


def test_coprime_basis_refines_shared_factors():
    v = ("x",)
    a = parse_poly("(x-1)^2*(x+2)", v)
    b = parse_poly("(x-1)*(x+3)^4", v)
    basis = coprime_basis([a, b])
    rendered = sorted(str(g) for g in basis)
    assert rendered == ["x+2", "x+3", "x-1"]


# -- j-invariants ----------------------------------------------------------------------


def test_j_known_values():
    assert j_invariant(curve_of("x^3+1")) == 0
    assert j_invariant(curve_of("x^3+x")) == 1728
    assert j_invariant(curve_of("x^3-x")) == 1728
    assert j_invariant(curve_of("x^4+1")) == 1728
    assert j_invariant(curve_of("x^4+x")) == 0


def test_j_cubic_and_quartic_paths_agree_on_matched_pair():
    # y^2 = x^3+3x^2+4x+2 maps to v^2 = 2u^4+4u^3+3u^2+u under u=1/x, v=y/x^2
    jc = j_invariant_cubic(parse_poly("x^3+3*x^2+4*x+2", ("x",)))
    jq = j_invariant_quartic(parse_poly("2*x^4+4*x^3+3*x^2+x", ("x",)))
    assert jc == jq == 1728


def test_j_quartic_invariance_random():
    rng = random.Random(1999)
    v = ("x",)
    x = MultiPoly.var(QQ, v, "x")
    done = 0
    while done < 10:
        f = MultiPoly.from_univariate(
            QQ, "x", [Fraction(rng.randrange(-4, 5)) for _ in range(5)]
        )
        if f.degree_in("x") != 4:
            continue
        try:
            j0 = j_invariant_quartic(f)
        except ValueError:
            continue
        p, q, r, s = (rng.randrange(-3, 4) for _ in range(4))
        if p * s - q * r == 0:
            continue
        num = x.scale(p) + q
        den = x.scale(r) + s
        g = MultiPoly.zero(QQ, v)
        cs = f.univariate_coeffs("x")
        for i, ci in enumerate(cs):
            g = g + (num**i) * (den ** (4 - i)).scale(ci)
        if g.degree_in("x") != 4:
            continue
        try:
            j1 = j_invariant_quartic(g)
        except ValueError:
            continue
        assert j0 == j1
        done += 1


def test_j_twist_invariance():
    f = parse_poly("x^4+x^3+2", ("x",))
    g = f.scale(3)
    assert j_invariant_quartic(f) == j_invariant_quartic(g)


@PROPS
@given(small_q, small_q, small_q.filter(bool), small_q)
def test_j_of_a_moved_short_cubic(A, B, u, r):
    disc = 4 * A**3 + 27 * B**2
    assume(disc)
    x = MultiPoly.var(QQ, ("x",), "x")
    moved = x.scale(u) + r
    f = moved**3 + moved.scale(A) + B
    assert j_invariant_cubic(f) == 1728 * 4 * A**3 / disc


def test_j_on_quadratic_field_curve():
    dom = QuadDomain(105)
    f = parse_poly("x^3+sqrt(105)*x", ("x",), dom=dom)
    assert j_invariant_cubic(f) == QuadExt(1728, 0, 105)
