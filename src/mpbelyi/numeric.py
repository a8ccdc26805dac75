"""Floating-point support at explicit binary precision.

Everything exact lives elsewhere; exact coefficients reach mpmath through
``scalars.to_bigfloat``.  The module provides root finding for dense
univariate polynomials, a two-variable Newton polish for isolating a root
of a pair of bivariate polynomials, clustering of approximate values, and
the finite critical values of a map A(x) + y*B(x) on y^2 = f(x).
"""

from fractions import Fraction

import mpmath

from .poly import MultiPoly, exact_divide, poly_gcd
from .scalars import DEFAULT_PRECISION, to_bigfloat


def eval_poly(p: MultiPoly, point: dict, bits: int = DEFAULT_PRECISION):
    """Evaluate a MultiPoly at numeric coordinates.  Exact coefficients
    are rounded once at working precision; powers are cached per term."""
    with mpmath.workprec(bits + 16):
        vals = {v: mpmath.mpmathify(point[v]) for v in p.vars if p.uses(v)}
        acc = mpmath.mpf(0)
        for e, c in p.terms.items():
            t = to_bigfloat(c, bits + 16)
            for i, v in enumerate(p.vars):
                if e[i]:
                    t = t * vals[v] ** e[i]
            acc = acc + t
    with mpmath.workprec(bits):
        return +acc


def dense_coeffs(p: MultiPoly, name: str, bits: int = DEFAULT_PRECISION):
    """Highest-degree-first numeric coefficient list of a univariate poly."""
    exact = p.univariate_coeffs(name)
    return [to_bigfloat(c, bits) for c in reversed(exact)]


def poly_roots(p: MultiPoly, name: str, bits: int = DEFAULT_PRECISION):
    """All complex roots of a univariate MultiPoly, as mpc values."""
    coeffs = dense_coeffs(p, name, bits + 32)
    with mpmath.workprec(bits + 32):
        roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=bits)
    with mpmath.workprec(bits):
        return [+mpmath.mpc(r) for r in roots]


def newton_polish_pair(
    f: MultiPoly,
    g: MultiPoly,
    point: dict,
    bits: int = DEFAULT_PRECISION,
    steps: int = 60,
):
    """Polish a simple common root of two bivariate polynomials by a
    damped 2x2 Newton iteration.  `point` maps the two variable names to
    starting values; returns (refined point dict, residual bound)."""
    names = [v for v in f.vars if f.uses(v) or g.uses(v)]
    if len(names) != 2:
        raise ValueError("expected exactly two active variables")
    u, v = names
    fu, fv = f.derivative(u), f.derivative(v)
    gu, gv = g.derivative(u), g.derivative(v)
    work = bits + 48
    with mpmath.workprec(work):
        xu = mpmath.mpmathify(point[u])
        xv = mpmath.mpmathify(point[v])
        for _ in range(steps):
            pt = {u: xu, v: xv}
            r0 = eval_poly(f, pt, work)
            r1 = eval_poly(g, pt, work)
            j00 = eval_poly(fu, pt, work)
            j01 = eval_poly(fv, pt, work)
            j10 = eval_poly(gu, pt, work)
            j11 = eval_poly(gv, pt, work)
            det = j00 * j11 - j01 * j10
            if not det:
                raise ZeroDivisionError("singular jacobian during polish")
            du = (r0 * j11 - r1 * j01) / det
            dv = (r1 * j00 - r0 * j10) / det
            xu, xv = xu - du, xv - dv
            if max(abs(du), abs(dv)) < mpmath.mpf(2) ** (-(bits + 24)):
                break
        pt = {u: xu, v: xv}
        resid = max(abs(eval_poly(f, pt, work)), abs(eval_poly(g, pt, work)))
    with mpmath.workprec(bits):
        return {u: +xu, v: +xv}, +resid


def cluster(values, tol):
    """Group approximately equal complex numbers.

    Returns [(center, multiplicity)] sorted by descending multiplicity
    then by real part; centers are the means of their groups."""
    groups: list = []
    for z in values:
        z = mpmath.mpc(z)
        for grp in groups:
            if abs(z - grp[0] / grp[1]) <= tol:
                grp[0] += z
                grp[1] += 1
                break
        else:
            groups.append([z, 1])
    out = [(g[0] / g[1], g[1]) for g in groups]
    out.sort(key=lambda t: (-t[1], mpmath.mpf(t[0].real), mpmath.mpf(t[0].imag)))
    return out


def critical_values(
    f: MultiPoly,
    a_part: MultiPoly,
    b_part: MultiPoly,
    name: str = "x",
    bits: int = DEFAULT_PRECISION,
):
    """Finite critical values of the map g = A(x) + y*B(x) on y^2 = f(x).

    The differential of g vanishes where N(x, y) = A'*y + (f*B' + f'*B/2)
    does; the product of N over the two sheets is the x-polynomial
    (f*B' + f'*B/2)^2 - f*A'^2, whose roots are located numerically and
    matched back to the sheet(s) where N is small.  Returns the clustered
    list [(value, multiplicity)]; ramified places over x = infinity are
    not represented here and must be accounted for separately."""
    da = a_part.derivative(name)
    db = b_part.derivative(name)
    df = f.derivative(name)
    half = Fraction(1, 2)
    wrap = f * db + (df * b_part).scale(half)
    norm_d = wrap * wrap - f * da * da
    if not norm_d:
        raise ValueError("the map is constant on one sheet")
    # multiple roots stall the root finder; pass only the squarefree part
    deriv = norm_d.derivative(name)
    if deriv:
        g = poly_gcd(norm_d, deriv)
        if g.degree_in(name) > 0:
            norm_d = exact_divide(norm_d, g)
    if norm_d.degree_in(name) == 0:
        return []
    work = bits + 48
    xs = poly_roots(norm_d, name, work)
    values = []
    with mpmath.workprec(work):
        tol = mpmath.mpf(2) ** (-(bits // 2))
        for x0 in xs:
            fx = eval_poly(f, {name: x0}, work)
            y0 = mpmath.sqrt(fx)
            wv = eval_poly(wrap, {name: x0}, work)
            dav = eval_poly(da, {name: x0}, work)
            size = 1 + abs(wv) + abs(dav) * abs(y0)
            for sheet in (y0, -y0):
                if abs(dav * sheet + wv) <= tol * size:
                    val = eval_poly(a_part, {name: x0}, work)
                    val += sheet * eval_poly(b_part, {name: x0}, work)
                    values.append(val)
        grouped = cluster(values, tol)
    with mpmath.workprec(bits):
        return [(+z, m) for z, m in grouped]
