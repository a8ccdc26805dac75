"""Polynomial engine tests.

Oracles come first and are deliberately naive: cofactor determinants,
dense-list division, monic Euclid, Sylvester matrices.  The fast exact
algorithms must agree with them.
"""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mpbelyi import poly as poly_module
from mpbelyi.parse import ParseError, parse_poly, parse_scalar
from mpbelyi.poly import (
    LinearSystem,
    MultiPoly,
    QQ,
    QuadDomain,
    RationalFunction,
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
    """Monic gcd of dense Fraction lists by plain Euclid."""
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
    assert p.num_terms() == 1
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


def is_qq(r):
    return r.dom == QQ and all(type(c) is Fraction for c in r.terms.values())


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
    assert is_qq(r)
    assert r.eval_scalars({"a": a0, "c": 0}) == sylvester_resultant(pc, qc)


@PROPS
@given(ac_poly, ac_poly, nonzero_frac, nonzero_frac)
def test_resultant_of_scaled_inputs(p, q, lam, mu):
    dp, dq = p.degree_in("c"), q.degree_in("c")
    r = resultant(p.scale(lam), q.scale(mu), "c")
    assert is_qq(r)
    assert r == resultant(p, q, "c").scale(lam**dq * mu**dp)


@PROPS
@given(ac_poly, ac_poly)
def test_resultant_of_swapped_inputs(p, q):
    r, s = resultant(p, q, "c"), resultant(q, p, "c")
    assert is_qq(r) and is_qq(s)
    assert s == r.scale((-1) ** (p.degree_in("c") * q.degree_in("c")))


def test_resultant_with_an_input_free_of_the_variable():
    v = ("a", "c")
    p = parse_poly("3/2*a", v)
    q = parse_poly("1/3*c^2-a", v)
    r = resultant(p, q, "c")
    assert is_qq(r) and r == parse_poly("9/4*a^2", v)
    assert resultant(q, p, "c") == r


@PROPS
@given(ac_poly, st.integers(-3, 3))
def test_discriminant_is_resultant_with_derivative_over_lc(p, a0):
    d = p.degree_in("c")
    sign = (-1) ** (d * (d - 1) // 2)
    disc = discriminant(p, "c")
    assert is_qq(disc)
    lc = p.coeff_of_power("c", d)
    assert disc == exact_divide(resultant(p, p.derivative("c"), "c"), lc).scale(sign)
    pc = at_a(p, a0)
    assume(pc[-1])
    dpc = [k * c for k, c in enumerate(pc)][1:]
    assert disc.eval_scalars({"a": a0, "c": 0}) == sign * sylvester_resultant(pc, dpc) / pc[-1]


@PROPS
@given(st.lists(ac_entry, min_size=9, max_size=9), st.lists(nonzero_frac, min_size=3, max_size=3))
def test_bareiss_row_scaling_and_cofactor_oracle(entries, r):
    m = [entries[3 * i : 3 * i + 3] for i in range(3)]
    d = det_fraction_free(m)
    assert is_qq(d)
    assert d == det_cofactor(m)
    scaled = [[e.scale(ri) for e in row] for row, ri in zip(m, r)]
    ds = det_fraction_free(scaled)
    assert is_qq(ds)
    assert ds == d.scale(r[0] * r[1] * r[2])


def test_nullspace_random_consistency():
    rng = random.Random(313)
    for _ in range(25):
        nrows, ncols = rng.randrange(1, 4), rng.randrange(1, 6)
        m = [[rand_frac(rng) for _ in range(ncols)] for _ in range(nrows)]
        pivots, basis = solve_nullspace(m)
        assert len(pivots) + len(basis) == ncols
        for vec in basis:
            for row in m:
                assert sum(c * w for c, w in zip(row, vec)) == 0


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


def test_linear_system_extraction():
    v = ("r0", "r1", "a")
    p1 = parse_poly("3*a*r0-r1", v)
    p2 = parse_poly("r0+a^2*r1", v)
    sys = LinearSystem.from_linear_polys([p1, p2], ("r0", "r1"))
    assert sys.rows[0][0] == parse_poly("3*a", v)
    assert sys.rows[1][1] == parse_poly("a^2", v)
    with pytest.raises(ValueError):
        LinearSystem.from_linear_polys([parse_poly("r0^2", v)], ("r0", "r1"))
    with pytest.raises(ValueError):
        LinearSystem.from_linear_polys([parse_poly("r0*r1", v)], ("r0", "r1"))
    with pytest.raises(ValueError):
        LinearSystem.from_linear_polys([parse_poly("r0+a", v)], ("r0", "r1"))


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
    assert parse_scalar("-7/9") == Fraction(-7, 9)
    s = parse_scalar("3/4+1/2*sqrt(105)")
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
