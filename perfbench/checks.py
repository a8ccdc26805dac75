"""Checks of the program's outputs, made apart from the program.

Every check either recomputes the value with code that shares nothing with
mpbelyi (sympy, or the small Q(sqrt d) and truncated-series arithmetic
below), or tests a law the method must satisfy.  Outputs are read through
their public attributes only (``terms``, ``vars``, ``num``/``den``,
``rat``/``surd``, ``coeffs``/``prec``, ``entries``, ``kind``), so the
checks do not depend on the program's own equality or arithmetic.  A
failed check raises CheckFailed.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from fractions import Fraction


class CheckFailed(AssertionError):
    pass


def require(cond, message: str):
    if not cond:
        raise CheckFailed(message)


# --------------------------------------------------------------------------
# sizes and fingerprints of exact outputs


def _rational_bits(q) -> int:
    q = Fraction(q)
    return max(abs(q.numerator).bit_length(), q.denominator.bit_length())


def coeff_bits(obj) -> int:
    """Size in bits of the largest exact rational inside an output.

    Floating-point values count 0; containers, polynomials, rational
    functions, series, divisors and quadratic-field elements are opened.
    """
    if isinstance(obj, bool) or obj is None or isinstance(obj, (str, float, complex)):
        return 0
    if isinstance(obj, (int, Fraction)):
        return _rational_bits(obj)
    if isinstance(obj, dict):
        return max((coeff_bits(v) for v in obj.values()), default=0)
    if isinstance(obj, (list, tuple)):
        return max((coeff_bits(v) for v in obj), default=0)
    if hasattr(obj, "surd") and hasattr(obj, "rat"):  # Q(sqrt d)
        return max(_rational_bits(obj.rat), _rational_bits(obj.surd))
    if hasattr(obj, "ext") and hasattr(obj, "a") and hasattr(obj, "b"):  # branch ext.
        return max(coeff_bits(obj.a), coeff_bits(obj.b))
    if hasattr(obj, "terms") and hasattr(obj, "vars"):  # polynomial
        return coeff_bits(obj.terms)
    if hasattr(obj, "num") and hasattr(obj, "den"):  # rational function
        return max(coeff_bits(obj.num), coeff_bits(obj.den))
    if hasattr(obj, "coeffs") and hasattr(obj, "prec"):  # Laurent series
        return coeff_bits(obj.coeffs)
    if hasattr(obj, "dxdt"):  # local frame
        return max(coeff_bits(obj.x), coeff_bits(obj.y), coeff_bits(obj.dxdt))
    if hasattr(obj, "entries"):  # divisor
        return max((coeff_bits(e[1]) if e[0] != "place" else 0 for e in obj.entries), default=0)
    if hasattr(obj, "curve") and hasattr(obj, "p") and hasattr(obj, "q"):
        return max(coeff_bits(obj.p), coeff_bits(obj.q))
    return 0


def _canon(obj):
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, Fraction):
        return ("Q", obj.numerator, obj.denominator)
    if isinstance(obj, (list, tuple)):
        return tuple(_canon(v) for v in obj)
    if isinstance(obj, dict):
        return tuple(sorted((repr(k), _canon(v)) for k, v in obj.items()))
    if hasattr(obj, "surd") and hasattr(obj, "rat"):
        return ("K", _canon(Fraction(obj.rat)), _canon(Fraction(obj.surd)))
    if hasattr(obj, "ext") and hasattr(obj, "a") and hasattr(obj, "b"):
        return ("W", _canon(obj.a), _canon(obj.b))
    if hasattr(obj, "terms") and hasattr(obj, "vars"):
        return ("P", obj.vars, _canon(obj.terms))
    if hasattr(obj, "num") and hasattr(obj, "den"):
        return ("R", _canon(obj.num), _canon(obj.den))
    if hasattr(obj, "coeffs") and hasattr(obj, "prec"):
        return ("S", obj.prec, _canon(obj.coeffs))
    if hasattr(obj, "dxdt"):
        return ("F", _canon(obj.x), _canon(obj.y), _canon(obj.dxdt))
    if hasattr(obj, "entries"):
        return ("D", tuple(
            (e[0], str(e[1]) if e[0] == "place" else _canon(e[1])) + tuple(e[2:])
            for e in obj.entries
        ))
    return ("T", type(obj).__name__, str(obj))


def fingerprint(obj) -> str:
    """Digest of an output's exact content, to compare rounds."""
    return hashlib.sha256(repr(_canon(obj)).encode()).hexdigest()


# --------------------------------------------------------------------------
# Q(sqrt d) as pairs (r, s) = r + s*sqrt(d), and univariate polynomials over
# it as {exponent: pair}; d is fixed per call site


def qpair(c):
    if hasattr(c, "surd"):
        return (Fraction(c.rat), Fraction(c.surd))
    return (Fraction(c), Fraction(0))


def qadd(u, v):
    return (u[0] + v[0], u[1] + v[1])


def qmul(u, v, d):
    return (u[0] * v[0] + d * u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def qinv(u, d):
    n = u[0] * u[0] - d * u[1] * u[1]
    if n == 0:
        raise ZeroDivisionError("inverting 0 in Q(sqrt %d)" % d)
    return (u[0] / n, -u[1] / n)


def upoly(poly) -> dict:
    """{k: pair} of a univariate polynomial output in x."""
    require(len(poly.vars) == 1, "expected a univariate polynomial, got vars %r" % (poly.vars,))
    return {e[0]: qpair(c) for e, c in poly.terms.items() if c}


def upoly_mul(p: dict, q: dict, d) -> dict:
    out = {}
    for i, a in p.items():
        for j, b in q.items():
            out[i + j] = qadd(out.get(i + j, (Fraction(0), Fraction(0))), qmul(a, b, d))
    return {k: v for k, v in out.items() if v != (0, 0)}


def upoly_eval(p: dict, x0, d):
    acc = (Fraction(0), Fraction(0))
    for k, c in p.items():
        term = c
        for _ in range(k):
            term = qmul(term, x0, d)
        acc = qadd(acc, term)
    return acc


def proportional(p: dict, q: dict, d) -> bool:
    """p is a nonzero constant multiple of q."""
    if not p or not q or set(p) != set(q):
        return False
    k = max(p)
    return all(qmul(p[e], q[k], d) == qmul(q[e], p[k], d) for e in p)


# --------------------------------------------------------------------------
# divisors


def divisor_degree(div) -> int:
    """Degree of a divisor, from its entries (each point counted once)."""
    total = 0
    for e in div.entries:
        kind = e[0]
        if kind == "place":
            total += e[2]
            continue
        deg = max(k[0] for k in e[1].terms)
        if kind == "cluster_both":
            total += 2 * deg * e[2]
        elif kind == "cluster_split":
            total += deg * (e[2] + e[3])
        elif kind == "cluster_ram":
            total += deg * e[2]
        else:
            raise CheckFailed("unknown divisor entry kind %r" % (kind,))
    return total


def match_divisor(div, expected, d, complete=True):
    """div carries the expected entries.

    expected holds (kind, target, multiplicities).  For a place, target is
    the place's kind; for a cluster it is a list of factors, pair-polynomials
    whose roots carry those multiplicities.  A cluster entry of div matches
    when its generator is, up to a unit, the product of some of the expected
    factors of its kind and multiplicities, so both grouping and
    normalisation of generators are the program's choice.  Every expected
    item must be matched; with complete, every entry of div too.
    """
    items = []
    for kind, target, mults in expected:
        if kind == "place":
            items.append((kind, target, mults))
        else:
            items.extend((kind, factor, mults) for factor in target)
    unmatched = []
    for e in div.entries:
        kind, mults = e[0], tuple(e[2:])
        pool = [i for i, it in enumerate(items) if it[0] == kind and it[2] == mults]
        hit = None
        if kind == "place":
            hit = next(((i,) for i in pool if getattr(e[1], "kind", None) == items[i][1]), None)
        elif pool:
            g = upoly(e[1])
            for subset in subsets(pool):
                prod = {0: (Fraction(1), Fraction(0))}
                for i in subset:
                    prod = upoly_mul(prod, items[i][1], d)
                if proportional(g, prod, d):
                    hit = subset
                    break
        if hit is None:
            unmatched.append("%s%r" % (kind, mults))
            continue
        items = [it for i, it in enumerate(items) if i not in hit]
    require(not items, "divisor lacks %s" % (["%s%r" % (it[0], it[2]) for it in items],))
    if complete:
        require(not unmatched, "divisor has unexpected entries %s" % (unmatched,))


def subsets(indices):
    """Non-empty subsets of a short list, smallest first."""
    for r in range(1, len(indices) + 1):
        yield from itertools.combinations(indices, r)


# --------------------------------------------------------------------------
# exact evaluation of polynomial and rational-function outputs over Q


def poly_at(poly, point: dict) -> Fraction:
    acc = Fraction(0)
    for e, c in poly.terms.items():
        t = Fraction(c)
        for name, k in zip(poly.vars, e):
            if k:
                t *= Fraction(point[name]) ** k
        acc += t
    return acc


def ratfunc_at(rf, point: dict) -> Fraction:
    den = poly_at(rf.den, point)
    require(den != 0, "denominator vanishes at the check point %r" % (point,))
    return poly_at(rf.num, point) / den


def poly_dict(rf) -> dict:
    """{exponents: Fraction} of a rational function whose denominator is a
    constant, that is, of a polynomial."""
    den_terms = rf.den.terms
    require(
        len(den_terms) == 1 and not any(next(iter(den_terms))),
        "coefficient %s is not a polynomial" % (rf,),
    )
    den = Fraction(next(iter(den_terms.values())))
    return {e: Fraction(c) / den for e, c in rf.num.terms.items() if c}


def to_fraction(x) -> Fraction:
    """sympy Rational or Integer to Fraction."""
    return Fraction(int(x.p), int(x.q))


# --------------------------------------------------------------------------
# truncated series over Q: {exponent: Fraction}


def series_at(ser, point: dict) -> dict:
    return {k: ratfunc_at(c, point) for k, c in ser.coeffs.items()}


def series_square(s: dict, below: int) -> dict:
    out = {}
    for i, a in s.items():
        for j, b in s.items():
            if i + j < below:
                out[i + j] = out.get(i + j, Fraction(0)) + a * b
    return {k: v for k, v in out.items() if v}


def values_agree(got: float, want: float, rel: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= rel * abs(want)
