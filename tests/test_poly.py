"""Polynomial engine tests.

Oracles come first and are deliberately naive: cofactor determinants,
dense-list division, monic Euclid (on Fraction lists, and on QuadExt lists
for the integer-pair gcd over Q(sqrt d)), Sylvester matrices; the
schoolbook product on QuadExt coefficients, for the integer-pair product,
sits with the Q(sqrt d) tests.  The fast exact algorithms must agree with
them.
"""

import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mpbelyi import goldens as G
from mpbelyi import poly as poly_module
from mpbelyi.parse import ParseError, parse_poly
from mpbelyi.poly import (
    MultiPoly,
    QQ,
    QuadDomain,
    RationalFunction,
    ZZ,
    det_fraction_free,
    discriminant,
    divide_out,
    exact_divide,
    poly_gcd,
    poly_sqrt,
    ratfunc_sqrt,
    resultant,
    solve_nullspace,
    squarefree_decomposition,
)
from mpbelyi.scalars import QuadExt


# -- oracles ---------------------------------------------------------------


def det_cofactor(m):
    """Determinant by first-row cofactor expansion; entries need +,-,*."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = None
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = m[0][j] * det_cofactor(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def dense_trim(a):
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def dense_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return dense_trim(out)


def dense_divmod(a, b):
    """Dense low-to-high Fraction lists; b nonzero."""
    a = dense_trim(a)
    b = dense_trim(b)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        k = len(a) - len(b)
        c = a[-1] / b[-1]
        q[k] = c
        for i, bc in enumerate(b):
            a[k + i] -= c * bc
        a = dense_trim(a)
    return q, a


def gcd_monic_euclid(a, b):
    """Monic gcd of dense lists of field elements (Fraction, QuadExt) by
    plain Euclid."""
    a, b = dense_trim(a), dense_trim(b)
    while b:
        _, r = dense_divmod(a, b)
        a, b = b, dense_trim(r)
    if not a:
        return []
    lc = a[-1]
    return [c / lc for c in a]


def sylvester_resultant(p, q):
    """Resultant of dense Fraction lists via the Sylvester determinant."""
    p, q = dense_trim(p), dense_trim(q)
    m, n = len(p) - 1, len(q) - 1
    size = m + n
    pr, qr = list(reversed(p)), list(reversed(q))
    rows = []
    for i in range(n):
        rows.append([Fraction(0)] * i + pr + [Fraction(0)] * (size - m - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + qr + [Fraction(0)] * (size - n - 1 - i))
    return det_cofactor(rows)


# -- builders ----------------------------------------------------------------


def rand_frac(rng, span=6):
    return Fraction(rng.randrange(-span, span + 1), rng.randrange(1, 4))


def rand_poly(rng, variables=("x", "y"), deg=2, terms=4, nonzero=False):
    while True:
        t = {}
        for _ in range(terms):
            e = tuple(rng.randrange(deg + 1) for _ in variables)
            t[e] = t.get(e, Fraction(0)) + rand_frac(rng)
        p = MultiPoly(QQ, variables, {e: c for e, c in t.items() if c})
        if p or not nonzero:
            return p


def rand_univar(rng, deg, nonzero=True):
    while True:
        coeffs = [rand_frac(rng) for _ in range(deg + 1)]
        if dense_trim(coeffs) or not nonzero:
            return MultiPoly.from_univariate(QQ, "x", coeffs), dense_trim(coeffs)


# -- polynomial ring basics ---------------------------------------------------


def test_construction_drops_zero_terms():
    p = MultiPoly(QQ, ("x",), {(2,): Fraction(0), (1,): Fraction(3)})
    assert len(p.terms) == 1
    assert p.degree_in("x") == 1
    assert MultiPoly.zero(QQ, ("x",)).total_degree() == -1


def test_scalar_equality_and_constants():
    p = MultiPoly.const(QQ, ("x", "y"), Fraction(5, 3))
    assert p == Fraction(5, 3)
    assert p.is_constant()
    q = MultiPoly.var(QQ, ("x", "y"), "x") * 0 + 7
    assert q == 7
    with pytest.raises(ValueError):
        (q + MultiPoly.var(QQ, ("x", "y"), "x")).constant_value()


def test_ring_axioms_random():
    rng = random.Random(20231)
    for _ in range(120):
        p, q, r = (rand_poly(rng) for _ in range(3))
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p - p == MultiPoly.zero(QQ, ("x", "y"))


def test_mul_matches_dense_convolution():
    rng = random.Random(4412)
    for _ in range(60):
        p, pc = rand_univar(rng, rng.randrange(5))
        q, qc = rand_univar(rng, rng.randrange(5))
        prod = p * q
        assert prod.univariate_coeffs("x") == dense_mul(pc, qc) or (
            not dense_mul(pc, qc) and not prod
        )


def test_pow_matches_repeated_mul():
    rng = random.Random(77)
    p = rand_poly(rng, terms=3, nonzero=True)
    acc = MultiPoly.const(QQ, ("x", "y"), 1)
    for k in range(6):
        assert p**k == acc
        acc = acc * p
    with pytest.raises(ValueError):
        p ** (-1)
    with pytest.raises(ValueError):
        MultiPoly.const(QQ, ("x", "y"), 2) ** (-1)


def test_subs_agrees_with_evaluation():
    rng = random.Random(90210)
    x = MultiPoly.var(QQ, ("x", "y"), "x")
    y = MultiPoly.var(QQ, ("x", "y"), "y")
    for _ in range(40):
        p = rand_poly(rng, deg=3)
        target = x * x - y + 2
        q = p.subs({"x": target})
        for _ in range(3):
            vx, vy = rand_frac(rng), rand_frac(rng)
            tv = target.eval_scalars({"x": vx, "y": vy})
            assert q.eval_scalars({"x": vx, "y": vy}) == p.eval_scalars({"x": tv, "y": vy})


def test_subs_into_smaller_ring():
    p = parse_poly("x^2*y+3*x-y", ("x", "y"))
    t = parse_poly("t^3-1", ("t",))
    q = p.subs({"x": t, "y": MultiPoly.const(QQ, ("t",), 2)})
    assert q == parse_poly("2*(t^3-1)^2+3*(t^3-1)-2", ("t",))


def test_derivative_product_rule():
    rng = random.Random(5150)
    for _ in range(50):
        p, q = rand_poly(rng, nonzero=True), rand_poly(rng, nonzero=True)
        for v in ("x", "y"):
            lhs = (p * q).derivative(v)
            rhs = p.derivative(v) * q + p * q.derivative(v)
            assert lhs == rhs


def test_coefficient_extraction():
    p = parse_poly("3*x^2*y-5*x^2+x*y^3+7", ("x", "y"))
    c2 = p.coeff_of_power("x", 2)
    assert c2 == parse_poly("3*y-5", ("x", "y"))
    assert p.coefficient({"x": 1, "y": 3}) == 1
    assert p.coefficient({"x": 9}) == 0
    u = parse_poly("2*x^3-x+4", ("x",))
    assert u.univariate_coeffs("x") == [Fraction(4), Fraction(-1), Fraction(0), Fraction(2)]
    with pytest.raises(ValueError):
        p.univariate_coeffs("x")


def test_content_and_primitive():
    p = parse_poly("6*x^2-10*x+4", ("x",))
    c, prim = p.primitive()
    assert c == 2
    assert prim == parse_poly("3*x^2-5*x+2", ("x",))
    assert prim.primitive()[0] == 1
    n = parse_poly("-6*x^2+10*x-4", ("x",))
    cn, primn = n.primitive()
    assert cn == -2 and primn == prim
    q = parse_poly("3/4*x-9/2", ("x",))
    cq, primq = q.primitive()
    assert cq == Fraction(3, 4) and primq == parse_poly("x-6", ("x",))


def test_exact_divide_roundtrip_random():
    rng = random.Random(31337)
    for _ in range(80):
        p = rand_poly(rng, nonzero=True)
        q = rand_poly(rng, nonzero=True)
        assert exact_divide(p * q, q) == p
    assert exact_divide(parse_poly("x^2-1", ("x",)), parse_poly("x+2", ("x",))) is None
    with pytest.raises(ZeroDivisionError):
        exact_divide(p, MultiPoly.zero(QQ, ("x", "y")))


def test_divide_out_multiplicity():
    x = ("x", "y")
    f = parse_poly("x-y", x)
    p = parse_poly("(x-y)^3*(x+y+1)", x)
    k, cof = divide_out(p, f)
    assert k == 3
    assert cof == parse_poly("x+y+1", x)


# -- gcd ---------------------------------------------------------------------


def test_gcd_univariate_matches_euclid_oracle():
    rng = random.Random(271828)
    for _ in range(60):
        p, pc = rand_univar(rng, rng.randrange(1, 5))
        q, qc = rand_univar(rng, rng.randrange(1, 5))
        g = poly_gcd(p, q)
        oracle = gcd_monic_euclid(pc, qc)
        got = g.univariate_coeffs("x")
        lc = got[-1]
        got = [c / lc for c in got]
        assert got == oracle


def test_gcd_contains_planted_factor():
    rng = random.Random(161803)
    for _ in range(30):
        g = rand_poly(rng, deg=1, terms=3, nonzero=True)
        a = rand_poly(rng, deg=1, terms=3, nonzero=True)
        b = rand_poly(rng, deg=1, terms=3, nonzero=True)
        d = poly_gcd(g * a, g * b)
        assert exact_divide(d, g.primitive_part()) is not None
        assert exact_divide(g * a, d) is not None
        assert exact_divide(g * b, d) is not None


def test_gcd_normalization_and_degenerate_inputs():
    p = parse_poly("4*x^2-4", ("x",))
    q = parse_poly("-6*x-6", ("x",))
    g = poly_gcd(p, q)
    assert g == parse_poly("x+1", ("x",))
    z = MultiPoly.zero(QQ, ("x",))
    assert poly_gcd(p, z) == parse_poly("x^2-1", ("x",))
    assert poly_gcd(z, z) == z
    c1 = MultiPoly.const(QQ, ("x",), Fraction(6))
    c2 = MultiPoly.const(QQ, ("x",), Fraction(-4))
    assert poly_gcd(c1, c2) == 2


def test_gcd_one_input_free_of_main_variable():
    v = ("x", "y")
    p = parse_poly("y^2-1", v)
    q = parse_poly("(y-1)*x+(y-1)*y", v)
    g = poly_gcd(p, q)
    assert g == parse_poly("y-1", v)


# -- resultants ----------------------------------------------------------------


def test_resultant_frozen_values():
    p = parse_poly("x^2-1", ("x",))
    q = parse_poly("x-2", ("x",))
    assert resultant(p, q, "x") == 3
    v = ("x", "a", "c")
    r = resultant(parse_poly("x-a", v), parse_poly("x-c", v), "x")
    assert r == parse_poly("a-c", v)


def test_resultant_matches_sylvester_oracle():
    rng = random.Random(999331)
    for _ in range(40):
        p, pc = rand_univar(rng, rng.randrange(1, 4))
        q, qc = rand_univar(rng, rng.randrange(1, 4))
        mine = resultant(p, q, "x").constant_value()
        assert mine == sylvester_resultant(pc, qc)


def test_resultant_multiplicative_and_root_detecting():
    rng = random.Random(55)
    v = ("x", "y")
    for _ in range(20):
        f = rand_poly(rng, v, deg=1, terms=2, nonzero=True) + MultiPoly.var(QQ, v, "x")
        g = rand_poly(rng, v, deg=1, terms=2, nonzero=True) + MultiPoly.var(QQ, v, "x") ** 2
        h = rand_poly(rng, v, deg=1, terms=2, nonzero=True) + MultiPoly.var(QQ, v, "x")
        lhs = resultant(f * g, h, "x")
        rhs = resultant(f, h, "x") * resultant(g, h, "x")
        assert lhs == rhs
        assert not resultant(f * h, g * h, "x")


def test_resultant_variable_absent_raises():
    p = parse_poly("y+1", ("x", "y"))
    with pytest.raises(ValueError):
        resultant(p, p, "x")


def test_discriminant_quadratic():
    v = ("x", "p", "q")
    f = parse_poly("x^2+p*x+q", v)
    assert discriminant(f, "x") == parse_poly("p^2-4*q", v)


# -- determinants and nullspaces -------------------------------------------------


def test_bareiss_matches_cofactor_oracle():
    rng = random.Random(424242)
    v = ("x", "y")
    for n in (2, 3, 4):
        for _ in range(12):
            m = [[rand_poly(rng, v, deg=1, terms=2) for _ in range(n)] for _ in range(n)]
            assert det_fraction_free(m) == det_cofactor(m)


def test_bareiss_known_integer_matrix():
    v = ("x",)
    rows = [[MultiPoly.const(QQ, v, c) for c in row] for row in ((2, 3, 1), (4, 7, 5), (6, 2, 9))]
    assert det_fraction_free(rows) == 2 * (7 * 9 - 5 * 2) - 3 * (4 * 9 - 5 * 6) + 1 * (4 * 2 - 7 * 6)


def test_bareiss_singular_and_pivoting():
    v = ("x",)
    x = MultiPoly.var(QQ, v, "x")
    zero = MultiPoly.zero(QQ, v)
    one = MultiPoly.const(QQ, v, 1)
    assert not det_fraction_free([[x, x], [x, x]])
    assert det_fraction_free([[zero, one], [one, zero]]) == -1


# -- QQ input runs on ZZ: denominators cleared at entry, scaled back once -------

PROPS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
AC = ("a", "c")
small_frac = st.fractions(min_value=-6, max_value=6, max_denominator=4)
nonzero_frac = small_frac.filter(bool)
ac_entry = st.dictionaries(
    st.tuples(st.integers(0, 1), st.integers(0, 1)), small_frac, max_size=3
).map(lambda t: MultiPoly(QQ, AC, t))
# bivariate in (a, c) and using c, with a non-integer coefficient
ac_poly = st.builds(
    lambda t, k, lc: MultiPoly(QQ, AC, {**t, (0, k): lc}),
    st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 3)), small_frac, max_size=4),
    st.integers(1, 3),
    small_frac.filter(lambda f: f.denominator > 1),
)


def lies_in(r, dom):
    """r is over dom, each coefficient of dom's element type."""
    return r.dom == dom and all(type(c) is type(dom.one) for c in r.terms.values())


def at_a(p, a0):
    """Dense coefficient list in c of p at a = a0."""
    return [p.coeff_of_power("c", k).eval_scalars({"a": a0, "c": 0})
            for k in range(p.degree_in("c") + 1)]


@PROPS
@given(ac_poly, ac_poly, st.integers(-3, 3))
def test_resultant_specialises_to_the_sylvester_oracle(p, q, a0):
    pc, qc = at_a(p, a0), at_a(q, a0)
    assume(pc[-1] and qc[-1])
    r = resultant(p, q, "c")
    assert lies_in(r, QQ)
    assert r.eval_scalars({"a": a0, "c": 0}) == sylvester_resultant(pc, qc)


@PROPS
@given(ac_poly, ac_poly, nonzero_frac, nonzero_frac)
def test_resultant_of_scaled_inputs(p, q, lam, mu):
    dp, dq = p.degree_in("c"), q.degree_in("c")
    r = resultant(p.scale(lam), q.scale(mu), "c")
    assert lies_in(r, QQ)
    assert r == resultant(p, q, "c").scale(lam**dq * mu**dp)


@PROPS
@given(ac_poly, ac_poly)
def test_resultant_of_swapped_inputs(p, q):
    r, s = resultant(p, q, "c"), resultant(q, p, "c")
    assert lies_in(r, QQ) and lies_in(s, QQ)
    assert s == r.scale((-1) ** (p.degree_in("c") * q.degree_in("c")))


def test_resultant_with_an_input_free_of_the_variable():
    v = ("a", "c")
    p = parse_poly("3/2*a", v)
    q = parse_poly("1/3*c^2-a", v)
    r = resultant(p, q, "c")
    assert lies_in(r, QQ) and r == parse_poly("9/4*a^2", v)
    assert resultant(q, p, "c") == r


Q105 = QuadDomain(105)


def over_zz(p):
    """A QQ polynomial times the lcm of its denominators, over ZZ."""
    lcm = math.lcm(*(c.denominator for c in p.terms.values()))
    return MultiPoly(ZZ, p.vars, {e: int(c * lcm) for e, c in p.terms.items()})


def over_q105(p, q):
    """p + sqrt(105)*q over Q(sqrt 105), for QQ polynomials p and q."""
    terms = {e: QuadExt(c, 0, 105) for e, c in p.terms.items()}
    for e, c in q.terms.items():
        terms[e] = terms.get(e, Q105.zero) + QuadExt(0, c, 105)
    return MultiPoly(Q105, p.vars, terms)


def quad_upoly(d):
    """Polynomials in x over Q(sqrt(d)) of degree at most 3 whose lead is
    sqrt(d) (rationalised: -d), r + s*sqrt(d) with s nonzero, or any nonzero
    coefficient; coefficients have denominators up to 4."""
    coeff = st.builds(lambda r, s: QuadExt(r, s, d), small_frac, small_frac)
    lead = st.one_of(
        st.just(QuadExt(0, 1, d)),
        st.builds(lambda r, s: QuadExt(r, s, d), small_frac, nonzero_frac),
        coeff.filter(bool),
    )
    return st.builds(
        lambda cs, c: MultiPoly.from_univariate(QuadDomain(d), "x", cs + [c]),
        st.lists(coeff, max_size=3),
        lead,
    )


@PROPS
@given(
    st.sampled_from([105, 2]).flatmap(lambda d: st.tuples(*[quad_upoly(d)] * 3)),
    st.booleans(),
)
def test_quad_gcd_matches_monic_euclid_on_quadext(t, embed):
    # p*h and q*h share h at least; on request x is the second of two
    # variables, which runs the subresultant PRS instead of integer pairs
    p, q, h = t
    a, b = p * h, q * h
    want = gcd_monic_euclid(a.univariate_coeffs("x"), b.univariate_coeffs("x"))
    if embed:
        a, b = a.with_vars(("y", "x")), b.with_vars(("y", "x"))
    assert poly_gcd(a, b).univariate_coeffs("x") == want


def quadext_schoolbook_mul(p, q):
    """p*q with every pair of terms multiplied and summed as ``QuadExt``
    elements: the reference for the integer-pair product."""
    out = {}
    for (i,), a in p.terms.items():
        for (j,), b in q.terms.items():
            out[(i + j,)] = out.get((i + j,), p.dom.zero) + a * b
    return MultiPoly(p.dom, p.vars, out)


def quad_any_upoly(d):
    """Polynomials in x over Q(sqrt(d)) of degree at most 4, dense or of one
    term (zero and constants among them), with rational, pure-surd or mixed
    coefficients over denominators up to 4."""
    dom = QuadDomain(d)
    coeff = st.one_of(
        st.builds(lambda r: QuadExt(r, 0, d), small_frac),
        st.builds(lambda s: QuadExt(0, s, d), small_frac),
        st.builds(lambda r, s: QuadExt(r, s, d), small_frac, small_frac),
    )
    return st.one_of(
        st.lists(coeff, max_size=5).map(lambda cs: MultiPoly.from_univariate(dom, "x", cs)),
        st.builds(lambda k, c: MultiPoly(dom, ("x",), {(k,): c}), st.integers(0, 4), coeff),
    )


def hash_or_error(x):
    try:
        return hash(x)
    except TypeError as exc:
        return str(exc)


def q5(text):
    return parse_poly(text, ("x",), dom=QuadDomain(5))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([2, 5, 105]).flatmap(lambda d: st.tuples(*[quad_any_upoly(d)] * 2)))
# pairs whose integers share a factor with the denominator: (x + 1/2)(2x + 4)
# over 2, and the derivative x over 2 of x^2/2 + sqrt(5)/2
@example((q5("x+1/2"), q5("2*x+4")))
@example((q5("1/2*x^2+1/2*sqrt(5)"), q5("sqrt(5)*x-3")))
def test_quad_products_and_derivatives_are_the_quadext_ones(t):
    p, q = t
    pq, dp = p * q, p.derivative("x")
    assert pq == quadext_schoolbook_mul(p, q) == q * p
    assert dp == MultiPoly(p.dom, p.vars, {(k - 1,): c * k for (k,), c in p.terms.items() if k})
    built = [pq] if len(p.terms) > 1 and len(q.terms) > 1 else []
    built += [dp] if p.total_degree() > 0 else []
    for r in built:
        # the pair form the kernel kept is the one a fresh conversion gives,
        # it spells out r's coefficients, and nothing else sees it
        fresh = MultiPoly(r.dom, r.vars, dict(r.terms))
        assert not hasattr(fresh, "_pairs")
        assert r == fresh and fresh == r and str(r) == str(fresh)
        assert hash_or_error(r) == hash_or_error(fresh)
        N, S, L = r._pairs
        assert MultiPoly.from_univariate(
            r.dom, "x", [QuadExt(Fraction(a, L), Fraction(b, L), r.dom.d) for a, b in zip(N, S)]
        ) == r
        assert poly_module._quad_ints(fresh) == (N, S, L)


# one discriminant on every ring: QQ and ZZ through the evaluation resultant,
# Q(sqrt 105) through the MultiPoly PRS
any_ring_ac_poly = st.one_of(
    ac_poly, ac_poly.map(over_zz), st.builds(over_q105, ac_poly, ac_entry)
)


@PROPS
@given(any_ring_ac_poly, st.integers(-3, 3))
def test_discriminant_is_resultant_with_derivative_over_lc(p, a0):
    d = p.degree_in("c")
    sign = (-1) ** (d * (d - 1) // 2)
    disc = discriminant(p, "c")
    assert lies_in(disc, p.dom) and disc.vars == p.vars
    pc = at_a(p, a0)
    assume(pc[-1])
    dpc = [k * c for k, c in enumerate(pc)][1:]
    assert disc.eval_scalars({"a": a0, "c": 0}) == sign * sylvester_resultant(pc, dpc) / pc[-1]


@PROPS
@given(st.lists(ac_entry, min_size=9, max_size=9), st.lists(nonzero_frac, min_size=3, max_size=3))
def test_bareiss_row_scaling_and_cofactor_oracle(entries, r):
    m = [entries[3 * i : 3 * i + 3] for i in range(3)]
    d = det_fraction_free(m)
    assert lies_in(d, QQ)
    assert d == det_cofactor(m)
    scaled = [[e.scale(ri) for e in row] for row, ri in zip(m, r)]
    ds = det_fraction_free(scaled)
    assert lies_in(ds, QQ)
    assert ds == d.scale(r[0] * r[1] * r[2])


# -- resultants over ZZ: evaluation at integer points against the PRS ------------

ABC = ("a", "b", "c")
zz_coeff = st.integers(-9, 9).filter(bool)


def zz_poly(variables, max_c=3, max_other=2, max_terms=5):
    exps = st.tuples(*[st.integers(0, max_c if v == "c" else max_other) for v in variables])
    return st.dictionaries(exps, zz_coeff, min_size=1, max_size=max_terms).map(
        lambda t: MultiPoly(ZZ, variables, t)
    )


def checked_resultant(p, q):
    """res_c(p, q) over ZZ, checked against the ``MultiPoly`` PRS."""
    r = resultant(p, q, "c")
    assert r.dom is ZZ and r.vars == p.vars
    assert r == poly_module._resultant(p, q, "c")
    return r


@PROPS
@given(zz_poly(AC), zz_poly(AC))
def test_eval_resultant_is_the_prs_resultant(p, q):
    assume(p.uses("c") or q.uses("c"))
    checked_resultant(p, q)


@PROPS
@given(zz_poly(ABC, max_c=2, max_terms=4), zz_poly(ABC, max_c=2, max_terms=4))
def test_eval_resultant_in_three_variables(p, q):
    assume(p.uses("c") or q.uses("c"))
    checked_resultant(p, q)


@PROPS
@given(
    st.lists(st.integers(-2, 2), min_size=1, max_size=3, unique=True),
    st.integers(1, 3),
    zz_poly(AC, max_c=2),
    zz_poly(AC),
)
def test_eval_resultant_skips_points_where_a_leading_coefficient_vanishes(roots, k, tail, q):
    # lc_c(p) = prod(a - r) vanishes at some of the first points 0, 1, -1, 2, -2
    a, c = MultiPoly.var(ZZ, AC, "a"), MultiPoly.var(ZZ, AC, "c")
    lc = MultiPoly.const(ZZ, AC, 1)
    for r in roots:
        lc = lc * (a - r)
    p = lc * c ** (tail.degree_in("c") + k) + tail
    checked_resultant(p, q)
    checked_resultant(q * (a - roots[0]), p)


@PROPS
@given(zz_poly(AC), zz_poly(AC), zz_poly(AC, max_terms=3))
def test_eval_resultant_of_inputs_with_a_common_factor_is_zero(f, g, h):
    assume(h.uses("c"))
    assert not checked_resultant(f * h, g * h)


@PROPS
@given(zz_poly(AC, max_c=0), zz_poly(AC))
def test_eval_resultant_with_an_input_free_of_the_variable(p, q):
    assume(q.uses("c"))
    assert checked_resultant(p, q) == p ** q.degree_in("c")
    assert checked_resultant(q, p) == p ** q.degree_in("c")


@PROPS
@given(st.integers(1, 3), st.integers(1, 3), zz_coeff, zz_coeff, zz_poly(AC, 2, 1), zz_poly(AC, 2, 1))
def test_eval_resultant_attains_the_degree_bound(m, n, alpha, beta, ptail, qtail):
    """p = c^m + alpha*a^m + lower, q = c^n + beta*a^n + lower, both of
    total degree their degree in c, so D_a = n*m + m*n - m*n = m*n, and the
    coefficient of a^(m*n) is res(c^m + alpha, c^n + beta)."""
    ptail, qtail = (
        MultiPoly(ZZ, AC, {e: k for e, k in t.terms.items() if sum(e) < d})
        for t, d in ((ptail, m), (qtail, n))
    )
    p = MultiPoly(ZZ, AC, {(0, m): 1, (m, 0): alpha}) + ptail
    q = MultiPoly(ZZ, AC, {(0, n): 1, (n, 0): beta}) + qtail
    top = sylvester_resultant([alpha] + [0] * (m - 1) + [1], [beta] + [0] * (n - 1) + [1])
    assume(top)
    r = checked_resultant(p, q)
    assert r.degree_in("a") == m * n and r.coefficient({"a": m * n}) == top


def test_newton_interpolation_is_exact_or_raises():
    # the nodes of the general case, and the squares of the symmetric one
    for xs in ([0, 1, -1, 2, -2], [0, 1, 4, 9, 16], [1, 4, 9, 16, 25]):
        poly = [7, -3, 0, 5]  # 7 - 3v + 5v^3 at five nodes: degree bound 4
        ys = [sum(k * x**i for i, k in enumerate(poly)) for x in xs]
        assert poly_module._newton_interpolate(xs, ys) == poly + [0]
        with pytest.raises(ArithmeticError):
            # (v^2 + v)/2: integer values, not integer coefficients
            poly_module._newton_interpolate(xs[:3], [(x * x + x) // 2 for x in xs[:3]])


# -- the (a, c) -> (-a, -c) symmetry: half the points ------------------------------


def with_parity(p, eps, key):
    """p with the exponent of c raised by one wherever key(e) % 2 != eps."""
    terms = {}
    for e, k in p.terms.items():
        e = e[:-1] + (e[-1] + (key(e) + eps) % 2,)
        terms[e] = terms.get(e, 0) + k
    return MultiPoly(ZZ, p.vars, terms)


def a_plus_c(e):
    return e[0] + e[-1]


def parity_poly(variables, eps, key=a_plus_c, **kw):
    """A nonzero ZZ polynomial whose monomials all have key(e) = eps mod 2."""
    return zz_poly(variables, **kw).map(lambda p: with_parity(p, eps, key)).filter(bool)


def halved_points(p, q):
    """The points res_c(p, q) takes in a when e_a + e_c has one parity over
    each input: (bound - odd)//2 + 1, with bound the degree bound D_a of
    ``resultant`` and odd the parity of sigma's exponent."""
    m, n = p.degree_in("c"), q.degree_in("c")
    ep, eq = ({a_plus_c(e) % 2 for e in t.terms}.pop() for t in (p, q))
    bound = min(n * p.degree_in("a") + m * q.degree_in("a"),
                n * p.total_degree() + m * q.total_degree() - m * n)
    odd = (ep * n + eq * m + m * n) % 2
    return (bound - odd) // 2 + 1


def resultant_and_points(p, q):
    """res_c(p, q) over ZZ, checked against the PRS, and the number of
    points at which its outermost evaluation took a resultant."""
    depth, points = [0], [0]
    inner = poly_module._eval_resultant

    def spy(pt, qt, i):
        depth[0] += 1
        points[0] += depth[0] == 2
        try:
            return inner(pt, qt, i)
        finally:
            depth[0] -= 1

    with mock.patch.object(poly_module, "_eval_resultant", spy):
        r = checked_resultant(p, q)
    return r, points[0]


@pytest.mark.parametrize("ep, eq", [(0, 0), (0, 1), (1, 0), (1, 1)])
@PROPS
@given(data=st.data())
def test_symmetric_resultant_takes_half_the_points(ep, eq, data):
    p, q = data.draw(parity_poly(AC, ep)), data.draw(parity_poly(AC, eq))
    assume(p.uses("a") or q.uses("a"))
    assume(p.uses("c") or q.uses("c"))
    r, points = resultant_and_points(p, q)
    assert points == halved_points(p, q)
    # R(-a) = sigma * R(a): one parity of a's exponent, odd when sigma = -1
    m, n = p.degree_in("c"), q.degree_in("c")
    odd = (ep * n + eq * m + m * n) % 2
    assert all(e[0] % 2 == odd for e in r.terms)


def test_odd_symmetric_resultant_vanishes_at_zero():
    # sigma = (-1)^(1 + 1 + 1): R(0) = 0, and each value is divided by a
    p, q = (over_zz(parse_poly(t, AC)) for t in ("c+a", "c+2*a"))
    assert resultant_and_points(p, q) == (over_zz(parse_poly("a", AC)), 1)
    p, q = (over_zz(parse_poly(t, AC)) for t in ("c^3+a*c^2-5*a^3", "3*c^2*a+c-7*a^2*c"))
    r, points = resultant_and_points(p, q)
    assert points == halved_points(p, q)
    assert r and all(e[0] % 2 for e in r.terms)


@PROPS
@given(data=st.data(), ep=st.integers(0, 1), eq=st.integers(0, 1))
def test_symmetry_read_from_the_two_variables_only(data, ep, eq):
    # three variables: e_a + e_c has one parity, the total degree two
    strat = (parity_poly(ABC, e, max_c=2, max_terms=4) for e in (ep, eq))
    p, q = (data.draw(s) for s in strat)
    assume(p.uses("a") and (p.uses("c") or q.uses("c")))
    assume(any(len({sum(e) % 2 for e in t.terms}) > 1 for t in (p, q)))
    r, points = resultant_and_points(p, q)
    assert points == halved_points(p, q)


@PROPS
@given(data=st.data(), ep=st.integers(0, 1), eq=st.integers(0, 1))
def test_one_parity_of_total_degree_is_no_symmetry(data, ep, eq):
    # three variables: the total degree has one parity, e_a + e_c need not
    strat = (parity_poly(ABC, e, key=sum, max_c=2, max_terms=4) for e in (ep, eq))
    p, q = (data.draw(s) for s in strat)
    assume(p.uses("c") or q.uses("c"))
    checked_resultant(p, q)


@PROPS
@given(
    st.lists(st.integers(0, 3), min_size=1, max_size=2, unique=True),
    st.integers(1, 3),
    st.integers(0, 1),
    st.integers(0, 1),
    st.data(),
)
def test_symmetric_resultant_skips_points_where_a_leading_coefficient_vanishes(
    roots, k, s, eq, data
):
    # lc_c(p) = a^s * prod(a^2 - r^2) vanishes at some of the first nodes
    a, c = MultiPoly.var(ZZ, AC, "a"), MultiPoly.var(ZZ, AC, "c")
    lc = a**s
    for r in roots:
        lc = lc * (a * a - r * r)
    tail = data.draw(parity_poly(AC, (s + k) % 2, max_c=k))
    p = lc * c**k + MultiPoly(ZZ, AC, {e: v for e, v in tail.terms.items() if e[1] < k})
    q = data.draw(parity_poly(AC, eq))
    r, points = resultant_and_points(p, q)
    assert points == halved_points(p, q)
    resultant_and_points(q * (a * a - roots[0] ** 2), p)


@PROPS
@given(data=st.data(), ef=st.integers(0, 1), eg=st.integers(0, 1), eh=st.integers(0, 1))
def test_symmetric_resultant_of_inputs_with_a_common_factor_is_zero(data, ef, eg, eh):
    f, g = data.draw(parity_poly(AC, ef)), data.draw(parity_poly(AC, eg))
    h = data.draw(parity_poly(AC, eh, max_terms=3))
    assume(h.uses("c"))
    assert not checked_resultant(f * h, g * h)


def dense_resultant_calls(f, *args):
    calls = [0]
    inner = poly_module._dense_resultant

    def counted(a, b):
        calls[0] += 1
        return inner(a, b)

    with mock.patch.object(poly_module, "_dense_resultant", counted):
        f(*args)
    return calls[0]


def test_elimination_takes_half_the_points():
    """F3 is even and H, like the benchmark's stand-in for the residue
    cofactor, even of degree 14 in c and in total: res_c(F3, H) has degree
    at most 140 in a and is even in a, so 71 points; disc_c(F3), of degree
    at most 90, 46 points."""
    rng = random.Random(11)
    h = {(i, j): rng.choice((1, -1)) * rng.randrange(1 << 31, 1 << 32)
         for j in range(14) for i in range(15 - j) if (i + j) % 2 == 0}
    h[(0, 14)] = rng.randrange(1 << 31, 1 << 32)
    f3, h = parse_poly(G.F3, AC), MultiPoly(QQ, AC, h)
    assert dense_resultant_calls(resultant, f3, h, "c") == 71
    assert dense_resultant_calls(discriminant, f3, "c") == 46
    assert dense_resultant_calls(resultant, parse_poly(G.F2, AC), f3, "c") == 11


def test_resultant_at_the_real_bidegree():
    """res_c(F3, H) with H even of bidegree (20, 20) and 90-bit
    coefficients, the shape of the residue cofactor's elimination (the
    recipe of BENCH_packed_monomials.json): 201 terms, degree 400 in a,
    1,595-bit coefficients, and three specialisations equal to sympy's."""
    import sympy as sp

    rng = random.Random(11)
    h = {}
    for i in range(21):
        for j in range(21):
            if (i + j) % 2 == 0:
                h[(i, j)] = Fraction(rng.choice((1, -1)) * rng.randrange(1 << 89, 1 << 90))
    f3, h = parse_poly(G.F3, AC), MultiPoly(QQ, AC, h)
    r = resultant(f3, h, "c")
    assert lies_in(r, QQ) and all(e[1] == 0 for e in r.terms)
    assert len(r.terms) == 201 and r.degree_in("a") == 400
    bits = max(max(k.numerator.bit_length(), k.denominator.bit_length()) for k in r.terms.values())
    assert bits == 1595
    c = sp.Symbol("c")
    for a0 in (-3, 2, 7):
        f0, h0 = (sp.Poly(list(reversed(at_a(p, a0))), c) for p in (f3, h))
        assert r.eval_scalars({"a": a0, "c": 0}) == sp.resultant(f0, h0)


def test_nullspace_random_consistency():
    rng = random.Random(313)
    for entry in (rand_frac, lambda rng: QuadExt(rand_frac(rng), rand_frac(rng), 105)):
        for _ in range(25):
            nrows, ncols = rng.randrange(1, 4), rng.randrange(1, 6)
            m = [[entry(rng) for _ in range(ncols)] for _ in range(nrows)]
            pivots, basis = solve_nullspace(m)
            free = [c for c in range(ncols) if c not in pivots]
            assert len(basis) == len(free)
            for fc, vec in zip(free, basis):
                # the free columns carry a unit vector, in the entries' own type
                assert all(type(w) is type(m[0][0]) for w in vec)
                assert [vec[c] for c in free] == [int(c == fc) for c in free]
                for row in m:
                    assert not sum(c * w for c, w in zip(row, vec))


def test_nullspace_rational_function_entries():
    v = ("a",)
    a = RationalFunction(MultiPoly.var(QQ, v, "a"))
    one = RationalFunction(MultiPoly.const(QQ, v, 1))
    m = [[a, one, a + one], [a, one, a + one]]
    pivots, basis = solve_nullspace(m)
    assert pivots == [0]
    assert len(basis) == 2
    for vec in basis:
        assert not sum(c * w for c, w in zip(m[0], vec))


# -- rational functions -----------------------------------------------------------


def test_ratfunc_reduces_on_construction():
    v = ("x",)
    num = parse_poly("x^2-1", v)
    den = parse_poly("2*x-2", v)
    r = RationalFunction(num, den)
    assert r.num == parse_poly("1/2*x+1/2", v)
    assert r.den == parse_poly("1", v)
    assert r == RationalFunction(parse_poly("x+1", v), parse_poly("2", v))


def test_ratfunc_den_sign_normalized():
    v = ("x",)
    r = RationalFunction(parse_poly("x", v), parse_poly("-x-1", v))
    assert r.den == parse_poly("x+1", v)
    assert r.num == parse_poly("-x", v)


def test_ratfunc_field_axioms_random():
    rng = random.Random(8080)
    v = ("x", "y")
    for _ in range(25):
        nums = [rand_poly(rng, v, deg=1, terms=2, nonzero=True) for _ in range(3)]
        dens = [rand_poly(rng, v, deg=1, terms=2, nonzero=True) for _ in range(3)]
        f, g, h = (RationalFunction(n, d) for n, d in zip(nums, dens))
        assert f + g == g + f
        assert f * (g + h) == f * g + f * h
        assert (f - f) == RationalFunction(MultiPoly.zero(QQ, v))
        assert (f / g) * g == f
        assert f * f ** (-1) == 1


def test_ratfunc_derivative_quotient_rule():
    v = ("x",)
    f = RationalFunction(parse_poly("x^2+1", v), parse_poly("x-3", v))
    df = f.derivative("x")
    expect = RationalFunction(parse_poly("x^2-6*x-1", v), parse_poly("(x-3)^2", v))
    assert df == expect


def test_ratfunc_eval_and_pole():
    v = ("x",)
    f = RationalFunction(parse_poly("x+1", v), parse_poly("x-2", v))
    assert f.eval_scalars({"x": Fraction(3)}) == 4
    with pytest.raises(ZeroDivisionError):
        f.eval_scalars({"x": Fraction(2)})


# -- square-free decomposition and square roots -------------------------------------


def test_squarefree_decomposition_reassembles():
    rng = random.Random(747)
    v = ("x",)
    for _ in range(20):
        f1 = parse_poly("x", v) + rand_frac(rng)
        f2 = parse_poly("x", v) + rand_frac(rng)
        while f2 == f1:
            f2 = parse_poly("x", v) + rand_frac(rng)
        f3 = parse_poly("x^2", v) + rand_frac(rng, 3) ** 2 + 1
        p = f1 * f2**2 * f3**3 * Fraction(rng.randrange(1, 5), 3)
        unit, parts = squarefree_decomposition(p, "x")
        acc = MultiPoly.const(QQ, v, unit)
        for g, k in parts:
            acc = acc * g**k
            assert poly_gcd(g, g.derivative("x")).is_constant()
        assert acc == p
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                assert poly_gcd(parts[i][0], parts[j][0]).is_constant()


def test_poly_sqrt_roundtrip_and_rejects():
    rng = random.Random(10101)
    v = ("x",)
    for _ in range(20):
        p, _ = rand_univar(rng, rng.randrange(1, 4))
        s = poly_sqrt(p * p, "x")
        assert s is not None and s * s == p * p
    assert poly_sqrt(parse_poly("x^2+1", v), "x") is None
    assert poly_sqrt(parse_poly("2*x^2", v), "x") is None


def test_poly_sqrt_quadratic_field_coefficients():
    dom = QuadDomain(105)
    v = ("x",)
    p = parse_poly("(1+sqrt(105))*x+2", v, dom=dom)
    s = poly_sqrt(p * p, "x")
    assert s is not None and s * s == p * p


def test_ratfunc_sqrt():
    v = ("x",)
    num = parse_poly("x^2+2*x+1", v)
    den = parse_poly("4*x^2", v)
    r = RationalFunction(num, den)
    s = ratfunc_sqrt(r)
    assert s is not None and s * s == r
    assert ratfunc_sqrt(RationalFunction(parse_poly("x", v))) is None
    const = RationalFunction(parse_poly("9/4", v))
    s2 = ratfunc_sqrt(const)
    assert s2 is not None and s2 * s2 == const


def test_ratfunc_sqrt_roots_the_content_in_the_other_variable():
    v = ("a", "c")

    def rf(text):
        return RationalFunction(parse_poly(text, v))

    for square, root in (("a^2*c^2", "a*c"), ("c^2*(a+1)^2", "c*(a+1)")):
        assert ratfunc_sqrt(rf(square)) in (rf(root), -rf(root))
    assert ratfunc_sqrt(rf("a^2*c")) is None
    # a numerator that does not use a, the first variable of the quotient
    root = rf("c") / rf("a")
    assert ratfunc_sqrt(root * root) in (root, -root)


ac_terms = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(bool),
    min_size=1,
    max_size=3,
)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(ac_terms)
def test_ratfunc_sqrt_over_q_a_c(terms):
    v = ("a", "c")
    p = RationalFunction(MultiPoly(QQ, v, terms))
    assert ratfunc_sqrt(p * p) in (p, -p)
    assert ratfunc_sqrt(p * p * RationalFunction(MultiPoly.var(QQ, v, "a"))) is None


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(ac_terms, st.tuples(st.integers(0, 3), st.integers(0, 3)), nonzero_frac)
def test_gcd_with_one_term_is_the_prs_gcd(terms, exps, k):
    # the one-term shortcut against the subresultant PRS it replaces
    v = ("a", "c")
    p, m = MultiPoly(QQ, v, terms), MultiPoly(QQ, v, {exps: k})
    with mock.patch.object(poly_module, "_monomial_gcd", lambda p, q: None):
        prs = poly_gcd(p, m), poly_gcd(m, p)
    assert (poly_gcd(p, m).terms, poly_gcd(m, p).terms) == (prs[0].terms, prs[1].terms)


def test_gcd_with_a_power_of_a_reads_off_the_exponents():
    v = ("a", "c")
    p = parse_poly("a^11*c+3*a^7*c^2-a^2*c+5*a^2*c^4", v)
    assert poly_gcd(p, parse_poly("4*a^11", v)) == parse_poly("a^2", v)
    assert poly_gcd(parse_poly("a^3*c^2", v), p) == parse_poly("a^2*c", v)
    assert poly_gcd(parse_poly("a*c", v), parse_poly("c+1", v)) == 1


# -- parser ------------------------------------------------------------------------


def test_parse_frozen_examples():
    p = parse_poly("x^2-1", ("x",))
    assert p.univariate_coeffs("x") == [Fraction(-1), Fraction(0), Fraction(1)]
    q = parse_poly("3/2*a^2*c-5*a+7", ("a", "c"))
    assert q.coefficient({"a": 2, "c": 1}) == Fraction(3, 2)
    assert q.coefficient({"a": 1}) == -5
    assert q.coefficient({}) == 7
    r = parse_poly("-(x+1)^3", ("x",))
    assert r == -((parse_poly("x+1", ("x",))) ** 3)


def test_parse_quadratic_field_literals():
    p = parse_poly("(1+2*sqrt(105))*x-3/4*sqrt(105)", ("x",))
    assert isinstance(p.dom, QuadDomain) and p.dom.d == 105
    assert p.coefficient({"x": 1}) == QuadExt(1, 2, 105)
    assert p.coefficient({}) == QuadExt(0, Fraction(-3, 4), 105)


def test_parse_render_roundtrip_random():
    rng = random.Random(600613)
    for _ in range(40):
        p = rand_poly(rng, ("x", "y"), deg=3, terms=5)
        assert parse_poly(str(p), ("x", "y")) == p
    dom = QuadDomain(105)
    for _ in range(25):
        terms = {}
        for _ in range(4):
            e = (rng.randrange(3), rng.randrange(3))
            c = QuadExt(rand_frac(rng), rand_frac(rng), 105)
            terms[e] = c
        p = MultiPoly(dom, ("x", "y"), terms)
        assert parse_poly(str(p), ("x", "y"), dom=dom) == p


def test_parse_scalar_values():
    assert parse_poly("-7/9").constant_value() == Fraction(-7, 9)
    s = parse_poly("3/4+1/2*sqrt(105)").constant_value()
    assert s == QuadExt(Fraction(3, 4), Fraction(1, 2), 105)


def test_parse_errors_report_position():
    with pytest.raises(ParseError) as e:
        parse_poly("x+z", ("x", "y"))
    assert "undeclared" in str(e.value) and "position 2" in str(e.value)
    with pytest.raises(ParseError):
        parse_poly("2x", ("x",))
    with pytest.raises(ParseError):
        parse_poly("x/2", ("x",))
    with pytest.raises(ParseError):
        parse_poly("x^-2", ("x",))
    with pytest.raises(ParseError):
        parse_poly("1/0", ("x",))
    with pytest.raises(ParseError):
        parse_poly("sqrt(2)+sqrt(3)", ())
    with pytest.raises(ParseError):
        parse_poly("x$2", ("x",))
    with pytest.raises(ParseError):
        parse_poly("(x+1", ("x",))
    # sqrt(d) needs a square-free d > 1: the error points at the sqrt
    for text in ("sqrt(4)*x", "x+sqrt(1)", "sqrt(0)"):
        with pytest.raises(ParseError) as e:
            parse_poly(text, ("x",))
        assert e.value.pos == text.index("sqrt")
