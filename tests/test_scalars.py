from __future__ import annotations

import math
import operator
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpbelyi.poly import BranchExtDomain, QQ, QuadDomain
from mpbelyi.scalars import (
    BranchExt,
    QuadExt,
    integer_sqrt_exact,
    quadext_sqrt,
    rational_sqrt_exact,
    to_bigfloat,
)

# ---------------------------------------------------------------- oracles
# Written before the implementations they check, and independent of them.


def newton_isqrt(n: int) -> int:
    """Floor square root by Newton iteration on integers."""
    if n == 0:
        return 0
    x = 1 << ((n.bit_length() + 1) // 2)
    while True:
        y = (x + n // x) // 2
        if y >= x:
            return x
        x = y


def long_division_digits(num: int, den: int, ndigits: int) -> str:
    """First ndigits decimal digits of num/den (0 < num/den < 1)."""
    assert 0 < num < den
    out = []
    rem = num
    for _ in range(ndigits):
        rem *= 10
        out.append(str(rem // den))
        rem %= den
    return "".join(out)


def mpf_to_fraction(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    val = Fraction(man) * Fraction(2) ** exp
    return -val if sign else val


def _rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-40, 40), rng.randint(1, 23))


def _rand_quad(rng: random.Random, d: int = 105) -> QuadExt:
    return QuadExt(_rand_fraction(rng), _rand_fraction(rng), d)


# ---------------------------------------------------------------- rationals


def test_rational_is_canonical():
    q = Fraction(6, -4)
    assert q.numerator == -3 and q.denominator == 2
    assert Fraction(0, 7) == 0 and Fraction(0, 7).denominator == 1


def test_rational_field_axioms_randomized():
    rng = random.Random(20260101)
    for _ in range(300):
        x, y, z = (_rand_fraction(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        if x:
            assert x * (1 / x) == 1


# ---------------------------------------------------------------- QuadExt


def test_quad_mul_hand_checked():
    x = QuadExt(1, 2, 105)
    y = QuadExt(3, -1, 105)
    assert x * y == QuadExt(-207, 5, 105)


def test_sqrt105_squares_to_105():
    s = QuadExt(0, 1, 105)
    assert s * s == QuadExt(105, 0, 105)
    assert s * s == Fraction(105)


def test_quadext_field_axioms_randomized():
    rng = random.Random(20260102)
    for d in (2, 5, 105):
        for _ in range(120):
            x, y, z = (_rand_quad(rng, d) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            if x:
                assert x * x.inverse() == 1
                assert (y / x) * x == y


def test_norm_multiplicative_and_conj_hom():
    rng = random.Random(20260103)
    for _ in range(200):
        x, y = _rand_quad(rng), _rand_quad(rng)
        assert (x * y).norm() == x.norm() * y.norm()
        assert (x * y).conj() == x.conj() * y.conj()
        assert (x + y).conj() == x.conj() + y.conj()
        assert x * x.conj() == x.norm()


def test_mixed_surds_rejected():
    with pytest.raises(ValueError):
        QuadExt(1, 1, 5) * QuadExt(1, 1, 105)
    with pytest.raises(ValueError):
        QuadExt(1, 1, 5) + QuadExt(0, 2, 3)
    # the same rule for every extension type: Q(w), w^2 = 7, and Q(w), w^2 = 3
    w7, w3 = BranchExtDomain(QQ, Fraction(7)).w(), BranchExtDomain(QQ, Fraction(3)).w()
    for op in (operator.add, operator.mul, operator.truediv):
        for x, y in ((w7, w3), (w3, w7), (1 + w7, w3)):
            with pytest.raises(ValueError):
                op(x, y)


def test_non_squarefree_d_rejected():
    # QuadDomain checks d, so no field with zero divisors such as
    # (w - 2)(w + 2) = 0 over d = 4 is ever built
    for bad in (4, 12, 18, 0, 1, -5):
        with pytest.raises(ValueError):
            QuadDomain(bad)
        with pytest.raises(ValueError):
            QuadExt(1, 1, bad)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QuadExt(1, 1, 105) / QuadExt(0, 0, 105)


def test_int_and_fraction_mix():
    x = QuadExt(Fraction(1, 2), Fraction(3), 105)
    assert x + 1 == QuadExt(Fraction(3, 2), 3, 105)
    assert 2 * x == QuadExt(1, 6, 105)
    assert x - Fraction(1, 2) == QuadExt(0, 3, 105)
    assert (1 / QuadExt(0, 1, 105)) == QuadExt(0, Fraction(1, 105), 105)


def test_sign_under_real_embedding():
    assert QuadExt(-10, 1, 105).sign() == 1  # sqrt(105) > 10
    assert QuadExt(-11, 1, 105).sign() == -1
    assert QuadExt(11, -1, 105).sign() == 1
    assert QuadExt(10, -1, 105).sign() == -1
    assert QuadExt(0, 0, 105).sign() == 0


def test_rendering_round_shape():
    assert str(QuadExt(Fraction(1, 2), Fraction(-3, 4), 105)) == "1/2-3/4*sqrt(105)"
    assert str(QuadExt(0, 1, 105)) == "sqrt(105)"
    assert str(QuadExt(Fraction(5), 0, 105)) == "5"
    assert str(QuadExt(0, -1, 5)) == "-sqrt(5)"


# ------------------------------------------- QuadExt against the generic BranchExt
# QuadExt computes on integers (n + s*sqrt(d))/q; the generic BranchExt over
# QQ with radicand d computes on two Fractions and is the reference.

PROPS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
FIELDS = (2, 5, 105)
REF = {d: BranchExtDomain(QQ, Fraction(d)) for d in FIELDS}

rationals = st.one_of(
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    st.fractions(max_denominator=10**12).filter(lambda r: abs(r) < 10**15),
)
parts = st.tuples(rationals, rationals)
exponents = st.integers(-3, 4)


def ref(x: QuadExt) -> BranchExt:
    return BranchExt(x.a, x.b, REF[x.d])


def same(x, r: BranchExt) -> bool:
    """x is the QuadExt whose parts are those of the reference r."""
    return type(x) is QuadExt and x.a == r.a and x.b == r.b


def assert_canonical(x: QuadExt):
    assert all(type(v) is int for v in (x.n, x.s, x.q))
    assert x.q > 0 and math.gcd(x.n, x.s, x.q) == 1
    assert x.a == Fraction(x.n, x.q) and x.b == Fraction(x.s, x.q)


@pytest.mark.parametrize("d", FIELDS)
@PROPS
@given(u=parts, v=parts, k=exponents)
def test_quadext_matches_generic_branchext(d, u, v, k):
    x, y = QuadExt(*u, d), QuadExt(*v, d)
    rx, ry = ref(x), ref(y)
    results = [
        (x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry), (-x, -rx),
        (x.conj(), rx.conj()), (x + u[1], rx + u[1]), (u[0] - y, u[0] - ry),
        (x * 3, rx * 3), (x - x, rx - rx),
    ]
    if x:
        results += [(x.inverse(), rx.inverse()), (y / x, ry / rx), (1 / x, 1 / rx)]
    if x or k >= 0:
        results.append((x**k, rx**k))
    for got, want in results:
        assert same(got, want), (str(got), str(want))
        assert_canonical(got)
    assert x.norm() == rx.norm() and type(x.norm()) is Fraction
    assert (x == y) == (rx == ry) and (x != y) == (rx != ry)
    assert str(x) == str(rx).replace("w", "sqrt(%d)" % d)
    value = to_bigfloat(rx, 256)
    assert x.sign() == (value > 0) - (value < 0)
    for z in (x, x * x):
        root, want = quadext_sqrt(z), quadext_sqrt(ref(z))
        assert (root is None) == (want is None)
        if root is not None:
            assert same(root, want) and root * root == z
            assert_canonical(root)


@pytest.mark.parametrize("d", FIELDS)
@PROPS
@given(u=parts, v=parts)
def test_quadext_canonical_form_is_its_equality_and_hash(d, u, v):
    x, y = QuadExt(*u, d), QuadExt(*v, d)
    assert_canonical(x)
    # one value computed two ways: the same integers, equal and hashing alike
    p, q = (x + y) * (x - y), x * x - y * y
    assert (p.n, p.s, p.q) == (q.n, q.s, q.q) and p == q and hash(p) == hash(q)
    zero = x - x
    assert (zero.n, zero.s, zero.q) == (0, 0, 1) and not zero and zero == 0
    # with a zero surd it is its Fraction, and its int when integral
    r = QuadExt(u[0], 0, d)
    assert r == u[0] and u[0] == r and hash(r) == hash(u[0])
    assert r == QuadExt(u[0], 0, 105) and hash(r) == hash(QuadExt(u[0], 0, 105))
    k = math.floor(u[0])
    assert QuadExt(k, 0, d) == k and hash(QuadExt(k, 0, d)) == hash(k)
    assert {QuadExt(k, 0, d): 1}[k] == 1 and {u[0]: 1}[r] == 1
    assert (x == u[0]) == (not x.s and x.a == u[0])


@pytest.mark.parametrize("d", FIELDS)
def test_quadext_zero_division_and_mixed_fields(d):
    x, zero = QuadExt(1, 1, d), QuadExt(0, 0, d)
    for op in (
        lambda: x / zero, lambda: x / 0, lambda: 1 / zero, lambda: zero.inverse(),
        lambda: zero**-1, lambda: x / Fraction(0),
    ):
        with pytest.raises(ZeroDivisionError):
            op()
    for other in FIELDS:
        if other == d:
            continue
        y = QuadExt(Fraction(1, 3), 2, other)
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(ValueError):
                op(x, y)
        # a rational element of another field is just a rational
        assert x * QuadExt(2, 0, other) == QuadExt(2, 2, d)


def test_quadext_parts_must_be_int_or_fraction():
    # QQ rejects floats; so does its quadratic extension's constructor
    for bad in ((0.1,), (1, 0.5), ("1/2",), (1, mpmath.mpf(2))):
        with pytest.raises(TypeError):
            QuadExt(*bad, 105)
    assert QuadExt(True, Fraction(2, 4), 105) == QuadExt(1, Fraction(1, 2), 105)


# ------------------------------------------------------------ square roots


def test_integer_sqrt_exact_matches_newton_oracle():
    assert newton_isqrt(16733233449) == 129357  # frozen oracle value
    assert integer_sqrt_exact(16733233449) == 129357
    rng = random.Random(20260104)
    for _ in range(400):
        n = rng.randint(0, 10**24)
        r = newton_isqrt(n)
        expect = r if r * r == n else None
        assert integer_sqrt_exact(n) == expect
    for _ in range(100):
        r = rng.randint(0, 10**12)
        assert integer_sqrt_exact(r * r) == r
    assert integer_sqrt_exact(-4) is None
    assert integer_sqrt_exact(2) is None


def test_rational_sqrt_exact():
    assert rational_sqrt_exact(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt_exact(Fraction(2, 3)) is None
    assert rational_sqrt_exact(Fraction(-1)) is None
    assert rational_sqrt_exact(0) == 0


def test_quadext_sqrt_round_trip_randomized():
    rng = random.Random(20260105)
    for d in (5, 105):
        for _ in range(150):
            x = _rand_quad(rng, d)
            sq = x * x
            root = quadext_sqrt(sq)
            assert root is not None
            assert root * root == sq
            # quadext_sqrt gives either root; QuadDomain.sqrt the positive one
            positive = QuadDomain(d).sqrt(sq)
            assert positive in (root, -root) and positive.sign() >= 0
    assert quadext_sqrt(QuadExt(29, 12, 5)) == QuadExt(3, 2, 5)
    # negatives under the real embedding have no real square root
    assert quadext_sqrt(QuadExt(-1, 0, 105)) is None
    # 595 - 23*45*sqrt(105) is negative, hence not a square
    assert QuadExt(595, -1035, 105).sign() < 0
    assert quadext_sqrt(QuadExt(595, -1035, 105)) is None
    # a rational square times 105 gives a pure-surd root
    assert quadext_sqrt(QuadExt(105 * 49, 0, 105)) == QuadExt(0, 7, 105)


# ---------------------------------------------------------------- bigfloat


def test_rational_to_float_long_division_oracle():
    x = to_bigfloat(Fraction(49, 1152), bits=128)
    digits = long_division_digits(49, 1152, 36)
    assert digits.startswith("0425347222")
    got = mpmath.nstr(x, 34, strip_zeros=False)
    assert got.startswith("0.0")
    compact = got.replace("0.", "", 1).lstrip("0")
    assert digits.lstrip("0").startswith(compact[:30])


def test_rational_to_float_correctly_rounded():
    rng = random.Random(20260106)
    for _ in range(60):
        q = Fraction(rng.randint(1, 10**12), rng.randint(1, 10**12))
        x = to_bigfloat(Fraction(q), bits=128)
        err = abs(mpf_to_fraction(x) - q)
        assert err <= q * Fraction(1, 2**127)


def test_to_bigfloat_quadext_cross_path():
    val = QuadExt(17983, 1755, 105)  # 17983 + 39*45*sqrt(105)
    x = to_bigfloat(val, bits=128)
    with mpmath.workprec(160):
        ref = 17983 + 1755 * mpmath.sqrt(105)
        assert mpmath.fabs(x - ref) < mpmath.mpf(2) ** (-100) * ref
    assert mpmath.nstr(x, 10).startswith("35966.")


def test_arithmetic_results_keep_fraction_parts_and_d():
    # results skip the public constructor's checks, so check what they carry
    for d in (2, 105):
        x = QuadExt(Fraction(1, 2), 3, d)
        y = QuadExt(-2, Fraction(5, 7), d)
        results = [
            x + y, x - y, x * y, -x, x.inverse(), x / y, x**3, x**-2, x**0,
            x.conj(), x + 1, 1 + x, x - Fraction(1, 3), 2 - x, 3 * x,
            x / 4, 4 / x,
        ]
        for r in results:
            assert type(r) is QuadExt
            assert type(r.rat) is Fraction and type(r.surd) is Fraction
            assert r.d == d
        with pytest.raises(AttributeError):
            (x * y).rat = Fraction(0)


def test_public_constructor_keeps_its_checks():
    for bad in (12, 1):
        with pytest.raises(ValueError):
            QuadExt(1, 1, bad)
    x, y = QuadExt(1, 1, 2), QuadExt(1, 1, 3)
    for op in (
        lambda: x + y, lambda: x - y, lambda: x * y, lambda: x / y, lambda: y / x
    ):
        with pytest.raises(ValueError):
            op()
