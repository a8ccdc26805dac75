"""The three workloads: seeded inputs, set-up, timed operations and checks.

A workload makes its inputs from the seed (plain Python data, no mpbelyi),
then ``build`` parses them and the goldens and constructs curves with a
freshly imported package; that is the set-up.  ``ops`` lists the timed
operations of one round.  Each operation carries the check of its output,
which runs after the timed rounds (see bench.py).
"""

from __future__ import annotations

import importlib
import math
import random
import re
import sys
import types
from fractions import Fraction
from typing import Callable, NamedTuple

from . import checks as ck
from .checks import require

PACKAGE_MODULES = ("scalars", "poly", "parse", "series", "curve", "mp", "numeric", "goldens")


def import_package():
    """Import mpbelyi afresh, with mpmath, its one third-party dependency,
    so that every set-up pays the package's import cost."""
    for name in list(sys.modules):
        if name.split(".")[0] in ("mpbelyi", "mpmath"):
            del sys.modules[name]
    return types.SimpleNamespace(
        **{n: importlib.import_module("mpbelyi." + n) for n in PACKAGE_MODULES}
    )


class Op(NamedTuple):
    name: str
    run: Callable[[dict], object]  # takes the outputs of earlier ops of the round
    check: Callable[[object], None]  # raises CheckFailed


def poly_text(terms: dict, names) -> str:
    """Render {exponents: int} as text the mpbelyi parser reads."""
    out = []
    for e, c in sorted(terms.items(), reverse=True):
        mono = "*".join(
            n if k == 1 else "%s^%d" % (n, k) for n, k in zip(names, e) if k
        )
        body = "%d*%s" % (abs(c), mono) if mono else str(abs(c))
        out.append(("-" if c < 0 else "+") + body)
    text = "".join(out)
    return text[1:] if text.startswith("+") else text


def _sympy():
    import sympy

    return sympy


def _sympy_poly_expr(terms: dict, names):
    sp = _sympy()
    syms = sp.symbols(names)
    return sp.Add(*[c * sp.Mul(*[s**k for s, k in zip(syms, e)]) for e, c in terms.items()])


def _sympy_from_text(text: str):
    return _sympy().sympify(text.replace("^", "**"))


# --------------------------------------------------------------------------
# eliminate


class Eliminate:
    """Resultants, a discriminant and a Bareiss determinant over Q[a,c]."""

    name = "eliminate"
    probe = "sparse"

    def __init__(self, seed: int, small: bool = False):
        rng = random.Random(seed)
        # H: even (every monomial of even total degree), degree n in c with a
        # constant leading coefficient, every coefficient 32 bits; it stands
        # in for the degree-21 residue-equation cofactor, which the goldens
        # do not freeze.
        self.h_degree = n = 4 if small else 14
        h = {}
        for j in range(n):
            for i in range(n - j + 1):
                if (i + j) % 2 == 0:
                    h[(i, j)] = rng.choice((1, -1)) * rng.randrange(1 << 31, 1 << 32)
        h[(0, n)] = rng.randrange(1 << 31, 1 << 32)
        self.h = h
        # a 4x4 matrix; each entry has 6 monomials of total degree <= 3 (<= 1
        # when small) with 16-bit coefficients
        dmax = 1 if small else 3
        monos = [(i, j) for i in range(dmax + 1) for j in range(dmax + 1 - i)]
        self.matrix = [
            [
                {e: rng.choice((1, -1)) * rng.randrange(1 << 15, 1 << 16)
                 for e in rng.sample(monos, min(6, len(monos)))}
                for _ in range(4)
            ]
            for _ in range(4)
        ]
        # check points: specialisations a = a0 (and c = c0 for the determinant)
        self.a_points = rng.sample([k for k in range(-9, 10) if k], 3)
        self.ac_points = [(rng.choice((1, -1)) * rng.randrange(1, 10),
                           rng.choice((1, -1)) * rng.randrange(1, 10)) for _ in range(3)]

    def build(self, m):
        V = ("a", "c")
        parse = m.parse.parse_poly
        G = m.goldens
        return types.SimpleNamespace(
            m=m,
            F2=parse(G.F2, V),
            F3=parse(G.F3, V),
            H=parse(poly_text(self.h, V), V),
            M=[[parse(poly_text(e, V), V) for e in row] for row in self.matrix],
        )

    def ops(self, st):
        P = st.m.poly
        G = st.m.goldens
        n = self.h_degree
        return [
            Op("resultant_F3_H", lambda done: P.resultant(st.F3, st.H, "c"),
               lambda out: self._check_elimination(out, "resultant", G.F3, self.h, 10 * n)),
            Op("det_4x4", lambda done: P.det_fraction_free(st.M), self._check_det),
            Op("discriminant_F3", lambda done: P.discriminant(st.F3, "c"),
               lambda out: self._check_elimination(out, "discriminant", G.F3, None, 10 * 9)),
            Op("resultant_F2_F3", lambda done: P.resultant(st.F2, st.F3, "c"),
               lambda out: self._check_elimination(out, "resultant", G.F2, G.F3, 2 * 10)),
        ]

    def _check_elimination(self, out, kind, f, g, bezout):
        """out lies in Q[a], has a-degree within the Bezout bound, and at
        each check point a = a0 equals sympy's resultant (or discriminant)
        in c of the specialised inputs.  Both inputs have a constant
        leading coefficient in c, so specialising commutes with it."""
        sp = _sympy()
        a, c = sp.symbols("a c")
        require(out.vars == ("a", "c"), "unexpected variables %r" % (out.vars,))
        require(all(e[1] == 0 for e in out.terms), "c was not eliminated")
        deg_a = max((e[0] for e in out.terms), default=0)
        require(deg_a <= bezout, "a-degree %d exceeds the Bezout bound %d" % (deg_a, bezout))
        fe = _sympy_from_text(f)
        ge = _sympy_poly_expr(g, ("a", "c")) if isinstance(g, dict) else (
            _sympy_from_text(g) if g is not None else None)
        for a0 in self.a_points:
            f0 = fe.subs(a, a0)
            if kind == "discriminant":
                want = sp.discriminant(f0, c)
            else:
                want = sp.resultant(f0, ge.subs(a, a0), c)
            got = ck.poly_at(out, {"a": a0, "c": 0})
            require(got == ck.to_fraction(sp.Rational(want)),
                    "%s differs from sympy at a = %d" % (kind, a0))

    def _check_det(self, out):
        """At each check point (a0, c0) the determinant equals sympy's
        determinant of the specialised integer matrix."""
        sp = _sympy()
        require(out.vars == ("a", "c"), "unexpected variables %r" % (out.vars,))
        for a0, c0 in self.ac_points:
            rows = [[sum(k * a0**e[0] * c0**e[1] for e, k in ent.items()) for ent in row]
                    for row in self.matrix]
            want = sp.Matrix(rows).det()
            got = ck.poly_at(out, {"a": a0, "c": c0})
            require(got == ck.to_fraction(sp.Rational(want)),
                    "determinant differs from sympy at (a, c) = (%d, %d)" % (a0, c0))


# --------------------------------------------------------------------------
# certify

D_FIELD = 105
GAMMA = 45


def _pairs_poly(coeffs: dict, s: int) -> dict:
    """{k: (r, u)} from {k: (r, u_per_sign)}: the sqrt(105) part takes the
    sign s of g = s*45*sqrt(105)."""
    return {k: (Fraction(r), Fraction(u * s)) for k, (r, u) in coeffs.items()}


def _cert_polys(s: int) -> dict:
    """The certification model's polynomials as pair-polynomials, written out
    by hand from goldens.CERT_*, for g = s*45*sqrt(105)."""
    g = GAMMA
    return {
        # 420*x^3-(119+9*g)*x^2+14*(1515-g)*x+420*(420-g)
        "f": _pairs_poly({3: (420, 0), 2: (-119, -9 * g), 1: (14 * 1515, -14 * g),
                          0: (420 * 420, -420 * g)}, s),
        "D": _pairs_poly({1: (64, 0), 0: (-105, g)}, s),  # 64*x-105+g
        "x-3": _pairs_poly({1: (1, 0), 0: (-3, 0)}, s),
        "x+5": _pairs_poly({1: (1, 0), 0: (5, 0)}, s),
        # 1 - (x-3)/D = (63*x-102+g)/D
        "D-x+3": _pairs_poly({1: (63, 0), 0: (-102, g)}, s),
    }


class Certify:
    """Divisors, the operator and residues on the certification curve over
    Q(sqrt 105), for g = +-45*sqrt(105), and the cases-stage numerics."""

    name = "certify"
    probe = "bigint"

    def __init__(self, seed: int, small: bool = False):
        # The inputs are the paper's closed-form model; the seed only picks
        # the x-values at which the operator's closed form is checked.
        rng = random.Random(seed)
        self.signs = (1,) if small else (1, -1)
        self.heavy = not small
        self.x_points = rng.sample([k for k in range(-20, 21) if k not in (3, -5, 0)], 3)

    def build(self, m):
        P, G = m.poly, m.goldens
        parse = m.parse.parse_poly
        dom = P.QuadDomain(D_FIELD)
        st = types.SimpleNamespace(m=m, sign={})
        for s in self.signs:
            gt = "(%s%d*sqrt(%d))" % ("" if s > 0 else "-", GAMMA, D_FIELD)

            def px(text):
                return parse(text.replace("g", gt), ("x",), dom=dom)

            curve = m.curve.CurveModel(px(G.CERT_MODEL_F))
            den = px(G.CERT_N0_DEN)
            st.sign[s] = types.SimpleNamespace(
                curve=curve,
                beta=curve.element(P.RationalFunction(px(G.CERT_N0_NUM), den)),
                beta_sq=curve.element(P.RationalFunction(px("(x-3)^2"), den)),
                beta_lin=curve.element(P.RationalFunction(px("x-3"), den)),
                inf=curve.places_at_infinity()[0],
                p0=curve.point(0),
                xy=curve.x() * curve.y(),
            )
        factor = G.RESULTANT_FACTORS[G.SURVIVOR_FACTOR_INDEX]
        require(not re.search(r"a(?!\^\d*[02468]\b)", factor), "survivor factor is not even in a")
        st.tpoly = parse(re.sub(r"a\^(\d+)", lambda mm: "t^%d" % (int(mm.group(1)) // 2), factor),
                         ("t",))
        return st

    def ops(self, st):
        m = st.m
        C, mp, N, P = m.curve, m.mp, m.numeric, m.poly
        G = m.goldens
        out = []
        for s in self.signs:
            w = st.sign[s]
            tag = "plus" if s > 0 else "minus"
            want_j = float(G.CERT_J_PLUS_APPROX if s > 0 else G.CERT_J_MINUS_APPROX)
            polys = _cert_polys(s)
            out += [
                Op("j." + tag, lambda done, w=w: C.j_invariant(w.curve),
                   lambda j, want=want_j: self._check_j(j, want, G.CERT_J_TOLERANCE)),
                Op("div_beta." + tag, lambda done, w=w: C.divisor_of(w.beta),
                   lambda d, p=polys: self._check_div_beta(d, p)),
                Op("div_one_minus_beta." + tag, lambda done, w=w: C.divisor_of(1 - w.beta),
                   lambda d, p=polys: self._check_div_one_minus_beta(d, p)),
                Op("mp_sq." + tag, lambda done, w=w: mp.mp_differential(w.beta_sq),
                   lambda u, p=polys: self._check_mp_sq(u, p)),
                Op("residue_inf." + tag,
                   lambda done, w=w, t=tag: C.residue_of_quadratic_differential(
                       done["mp_sq." + t], w.inf),
                   self._check_residue),
            ]
            if self.heavy:
                out.append(Op("div_mp_lin." + tag,
                              lambda done, w=w: C.divisor_of(mp.mp_differential(w.beta_lin)),
                              lambda d, p=polys: self._check_div_mp_lin(d, p)))
            out.append(Op("order_x0." + tag, lambda done, w=w: C.order_at(w.xy, w.p0),
                          lambda v: require(v == 1, "ord(x*y) over x = 0 is %r, not 1" % (v,))))
        out += [
            Op("cases.discriminant", lambda done: P.discriminant(st.tpoly, "t"),
               self._check_survivor_disc),
            Op("cases.roots", lambda done: N.poly_roots(st.tpoly, "t"), self._check_survivor_roots),
        ]
        return out

    @staticmethod
    def _check_j(j, want, tol):
        r, u = ck.qpair(j)
        val = float(r) + float(u) * math.sqrt(D_FIELD)
        require(abs(val - want) <= tol, "j = %r is not within %g of %r" % (val, tol, want))

    @staticmethod
    def _check_div_beta(d, polys):
        # beta = K*(x+5)^3*(x-3)^5/D on a cubic, where ord_inf(x) = -2
        require(ck.divisor_degree(d) == 0, "div(beta) has degree %d" % ck.divisor_degree(d))
        ck.match_divisor(d, [
            ("cluster_both", [polys["x-3"]], (5,)),
            ("cluster_both", [polys["x+5"]], (3,)),
            ("cluster_both", [polys["D"]], (-1,)),
            ("place", "infinite_ramified", (-14,)),
        ], D_FIELD)

    @staticmethod
    def _check_div_one_minus_beta(d, polys):
        # 1 - beta has the poles of beta; degree 0 then puts degree 16 on its zeros
        require(ck.divisor_degree(d) == 0, "div(1-beta) has degree %d" % ck.divisor_degree(d))
        ck.match_divisor(d, [
            ("cluster_both", [polys["D"]], (-1,)),
            ("place", "infinite_ramified", (-14,)),
        ], D_FIELD, complete=False)

    def _check_mp_sq(self, u, polys):
        """u = beta'(x)^2 f(x) / (beta (1 - beta)) for beta = (x-3)^2/D, a
        function of x alone, at each check point x0."""
        require(not u.q.num.terms, "the operator of a function of x has a y-part")
        d = D_FIELD
        num = ck.upoly(u.p.num)
        den = ck.upoly(u.p.den)
        one = (Fraction(1), Fraction(0))
        for x0 in self.x_points:
            x = (Fraction(x0), Fraction(0))
            n0 = ck.qmul((x[0] - 3, x[1]), (x[0] - 3, x[1]), d)  # (x-3)^2
            dn0 = (2 * (x[0] - 3), Fraction(0))  # its derivative
            D0 = ck.upoly_eval(polys["D"], x, d)
            dD = (Fraction(64), Fraction(0))
            iD = ck.qinv(D0, d)
            beta = ck.qmul(n0, iD, d)
            dbeta = ck.qmul(ck.qadd(ck.qmul(dn0, D0, d), ck.qmul((-n0[0], -n0[1]), dD, d)),
                            ck.qmul(iD, iD, d), d)
            fx = ck.upoly_eval(polys["f"], x, d)
            one_minus = ck.qadd(one, (-beta[0], -beta[1]))
            want = ck.qmul(ck.qmul(ck.qmul(dbeta, dbeta, d), fx, d),
                           ck.qinv(ck.qmul(beta, one_minus, d), d), d)
            got = ck.qmul(ck.upoly_eval(num, x, d), ck.qinv(ck.upoly_eval(den, x, d), d), d)
            require(got == want, "operator differs from its closed form at x = %d" % x0)

    @staticmethod
    def _check_residue(r):
        # (x-3)^2/D has a pole of order k = 2 at infinity (x has order -2 on
        # a cubic); the operator's residue there is -k^2
        require(ck.qpair(r) == (-4, 0), "residue %s is not -4" % (r,))

    @staticmethod
    def _check_div_mp_lin(d, polys):
        """For beta = (x-3)/D, beta' = (87+g)/D^2 and the operator is
        K*f/(D^2 (x-3)(63x-102+g)): +2 at the branch points of f and at
        infinity, -2 over the root of D, -1 over the zeros of beta and 1-beta."""
        require(ck.divisor_degree(d) == 0, "div(u) has degree %d" % ck.divisor_degree(d))
        ck.match_divisor(d, [
            ("cluster_ram", [polys["f"]], (2,)),
            ("cluster_both", [polys["D"]], (-2,)),
            ("cluster_both", [polys["x-3"], polys["D-x+3"]], (-1,)),
            ("place", "infinite_ramified", (2,)),
        ], D_FIELD)

    @staticmethod
    def _check_survivor_disc(disc):
        require(disc.vars == ("t",) and all(not any(e) for e in disc.terms),
                "discriminant is not a constant")
        val = ck.poly_at(disc, {"t": 0})
        require(val == 1439865**2 - 4 * 5670 * 13942756, "discriminant %s is wrong" % val)
        require(val == 105 * 129357**2, "discriminant %s is not 105*129357^2" % val)

    @staticmethod
    def _check_survivor_roots(roots):
        zs = sorted((complex(r) for r in roots), key=lambda z: z.real)
        require(len(zs) == 2, "expected 2 roots in t = a^2, got %d" % len(zs))
        s = 129357 * math.sqrt(105)
        for z, exact, paper, tol in zip(zs, ((1439865 - s) / 11340, (1439865 + s) / 11340),
                                        (10.0838, 243.861), (5e-5, 5e-4)):
            require(abs(z.imag) <= 1e-9 * abs(z.real), "root %r is not real" % z)
            require(ck.values_agree(z.real, exact, 1e-12), "root %r is not %r" % (z, exact))
            require(abs(z.real - paper) <= tol, "root %r is not the paper's %r" % (z, paper))


# --------------------------------------------------------------------------
# expand

ANSATZ_PREC = 12


class Expand:
    """Local frames and orders on the ansatz quartic over Frac(Q[a,c])."""

    name = "expand"
    probe = "sparse"

    def __init__(self, seed: int, small: bool = False):
        # The curve is the paper's ansatz; the seed picks the rational points
        # (a0, c0) at which the series law y(t)^2 = f(x(t)) is checked.
        rng = random.Random(seed)
        self.prec = 4 if small else ANSATZ_PREC
        self.small = small
        self.points = [
            (Fraction(rng.choice((1, -1)) * rng.randrange(1, 60), rng.randrange(1, 12)),
             Fraction(rng.choice((1, -1)) * rng.randrange(1, 60), rng.randrange(1, 12)))
            for _ in range(8)
        ]

    def build(self, m):
        P, G = m.poly, m.goldens
        V = ("a", "c")
        dom = P.FractionFieldDomain(P.QQ, V)

        def coef(text):
            return dom.coerce(m.parse.parse_poly(text, V))

        f = P.MultiPoly(dom, ("x",), {(4,): dom.one, (3,): coef("c"), (2,): coef(G.B_VALUE),
                                      (1,): coef("a"), (0,): dom.one})
        curve = m.curve.CurveModel(f)
        plus, minus = curve.places_at_infinity()
        # curve.y() and curve.x() fail over a fraction field; build y +- x^2
        # from its parts
        one = P.RationalFunction(P.MultiPoly.const(dom, ("x",), dom.one))
        x2 = {s: P.RationalFunction(P.MultiPoly(dom, ("x",), {(2,): dom.coerce(s)}))
              for s in (1, -1)}
        elem = {s: m.curve.FunctionFieldElement(curve, x2[s], one) for s in (1, -1)}
        return types.SimpleNamespace(m=m, curve=curve, plus=plus, minus=minus,
                                     base=curve.point(0), elem=elem)

    def ops(self, st):
        C = st.m.curve
        G = st.m.goldens
        prec = self.prec
        out = [
            Op("frame.plus", lambda done: st.plus.frame(prec),
               lambda fr: self._check_infinite_frame(fr, G.Y_MINUS_BRANCH_X3, -1)),
            Op("frame.minus", lambda done: st.minus.frame(prec),
               lambda fr: self._check_infinite_frame(fr, G.Y_MINUS_BRANCH_X3, 1)),
            Op("frame.base", lambda done: st.base.frame(prec),
               lambda fr: self._check_base_frame(fr, G.Y_SERIES_AT_BASEPOINT, G.B_VALUE)),
        ]
        # y ~ +x^2 at the + place and -x^2 at the - place, and y - (+-x^2)
        # starts with (c/2)*x there
        cases = [("plus", 1, -2), ("plus", -1, -1), ("minus", 1, -1), ("minus", -1, -2)]
        if self.small:
            cases = cases[:2]
        for place, s, want in cases:
            out.append(Op(
                "order.%s.y%sx2" % (place, "+" if s > 0 else "-"),
                lambda done, place=place, s=s: C.order_at(st.elem[s], getattr(st, place)),
                lambda v, want=want: require(v == want, "order %r, expected %d" % (v, want)),
            ))
        return out

    @staticmethod
    def _golden_by_x_power(text, subs=None) -> dict:
        """{x-exponent: {(a-exp, c-exp): Fraction}} of a golden, read by sympy."""
        sp = _sympy()
        x, a, c, b = sp.symbols("x a c b")
        expr = _sympy_from_text(text)
        if subs:
            expr = sp.expand(expr.subs(b, _sympy_from_text(subs)))
        out = {}
        for (ex, ea, ec), k in sp.Poly(expr, x, a, c).terms():
            out.setdefault(ex, {})[(ea, ec)] = ck.to_fraction(k)
        return out

    @staticmethod
    def _ac_dict(rf) -> dict:
        terms = ck.poly_dict(rf)
        ia, ic = rf.num.vars.index("a"), rf.num.vars.index("c")
        return {(e[ia], e[ic]): v for e, v in terms.items()}

    def _pick_point(self, series_list):
        for a0, c0 in self.points:
            pt = {"a": a0, "c": c0}
            if all(ck.poly_at(co.den, pt) != 0 for s in series_list for co in s.coeffs.values()):
                return pt
        raise ck.CheckFailed("every check point is a pole of some coefficient")

    def _check_square_law(self, fr, x_exp):
        """y(t)^2 = f(x(t)) below the precision y^2 is known to, at a check
        point; x(t) = t^x_exp exactly."""
        pt = self._pick_point([fr.x, fr.y])
        xs = ck.series_at(fr.x, pt)
        require(xs == {x_exp: 1}, "x(t) is %r, not t^%d" % (xs, x_exp))
        a0, c0 = pt["a"], pt["c"]
        fcoef = {4: Fraction(1), 3: c0, 2: a0 * a0 / 4 - Fraction(25, 12), 1: a0, 0: Fraction(1)}
        fx = {k * x_exp: v for k, v in fcoef.items() if v}
        ys = ck.series_at(fr.y, pt)
        v = min(ys)
        below = v + fr.y.prec
        require(below - 2 * v >= 3, "frame precision %d too low" % fr.y.prec)
        want = {k: val for k, val in fx.items() if k < below}
        require(ck.series_square(ys, below) == want, "y(t)^2 != f(x(t)) at %r" % (pt,))

    def _check_infinite_frame(self, fr, golden, sign):
        """x^3 * y on the - branch is the golden, from x^5 down to x^0; the +
        branch is its negative.  With t = 1/x, y's t^k term is x^(3-k)."""
        gold = self._golden_by_x_power(golden)
        for k in range(-2, 4):
            want = {e: sign * v for e, v in gold.get(3 - k, {}).items()}
            coef = fr.y.coeffs.get(k)
            got = self._ac_dict(coef) if coef is not None else {}
            require(got == want, "y's t^%d coefficient differs from the golden" % k)
        self._check_square_law(fr, -1)

    def _check_base_frame(self, fr, golden, b_value):
        gold = self._golden_by_x_power(golden, subs=b_value)
        for k in range(3):
            coef = fr.y.coeffs.get(k)
            got = self._ac_dict(coef) if coef is not None else {}
            require(got == gold.get(k, {}), "y's t^%d coefficient differs from the golden" % k)
        self._check_square_law(fr, 1)


WORKLOADS = {w.name: w for w in (Eliminate, Certify, Expand)}
