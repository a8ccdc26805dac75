"""Truncated Laurent series over an exact coefficient field.

A series stores finitely many coefficients plus a truncation exponent
``prec``: coefficients are known exactly for every exponent below prec and
unknown from prec on.  All operations propagate prec honestly, so asking
for a coefficient the truncation cannot see raises instead of silently
returning zero.  Division and square roots are exact in the coefficient
field; nothing is ever rounded.

Coefficient fields are the domain tags from the polynomial layer (or any
object with the same small protocol, ``poly.Field``), which lets one series
type serve rational, quadratic-field, rational-function, and extension
coefficients; ``-``, ``/`` and ``**`` of series come from ``scalars.FieldOps``.

Every coefficient of a product, an inverse or a square root is one call of
the domain's ``lincomb``, the sum of w*x*y over a list of (w, x, y) with
int or ``Fraction`` weights (see ``poly.Field``): the whole sum of that
coefficient at once.  On most domains that is the plain sum of products;
over Frac(Q[a,c]), where every coefficient of the ansatz curve's frames has
denominator one, it runs on integers and normalises each output term once,
with each operand's numerator cleared to integers only on its first use.
Inverses and square roots run recurrences over the input's nonzero terms
(roots by J. C. P. Miller's), so rooting a frame's f(x(t)) of five terms
costs four products a coefficient.  A lead of one scales nothing, and a
one-term series runs no recurrence: its inverse and root are those of its
lead, and a product with it is the other factor shifted and scaled by its
coefficient (not scaled at all when that is one), which is every Horner
step of a polynomial at x(t) = 1/t or t.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import FieldOps

MAX_TRUNCATION = 64


class SeriesPrecisionError(ArithmeticError):
    """A computation needed coefficients beyond the stored truncation."""

    def __init__(self, message: str, needed: int | None = None):
        super().__init__(message)
        self.needed = needed


class LaurentSeries(FieldOps):
    """Finite window of exponents with an O(t^prec) tail marker."""

    __slots__ = ("dom", "coeffs", "prec")

    def __init__(self, dom, coeffs: dict, prec: int):
        # precision beyond the cap is clamped, never manufactured; adaptive
        # refinement loops treat a demand past the cap as a hard failure
        prec = min(prec, MAX_TRUNCATION)
        self.dom = dom
        self.prec = prec
        self.coeffs = {
            k: c for k, c in coeffs.items() if k < prec and not dom.is_zero(c)
        }

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, dom, prec: int):
        return cls(dom, {}, prec)

    @classmethod
    def const(cls, dom, value, prec: int):
        return cls(dom, {0: dom.coerce(value)}, prec)

    # -- inspection -----------------------------------------------------------

    def valuation(self):
        """Order of the lowest known nonzero term; None when indistinguishable
        from zero at this truncation."""
        if not self.coeffs:
            return None
        return min(self.coeffs)

    def coefficient_of(self, k: int):
        if k >= self.prec:
            raise SeriesPrecisionError(
                "coefficient of t^%d requested but series is only known "
                "below order %d" % (k, self.prec),
                needed=k + 1,
            )
        return self.coeffs.get(k, self.dom.zero)

    def __bool__(self):
        return bool(self.coeffs)

    def _check(self, other: "LaurentSeries"):
        if not (self.dom is other.dom or self.dom == other.dom):
            raise ValueError("series live over different coefficient fields")

    def _wrap(self, x):
        if isinstance(x, LaurentSeries):
            self._check(x)
            return x
        try:
            return LaurentSeries.const(self.dom, x, self.prec)
        except TypeError:
            return None

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        prec = min(self.prec, o.prec)
        out = dict(self.coeffs)
        for k, c in o.coeffs.items():
            cur = out.get(k)
            out[k] = c if cur is None else cur + c
        return LaurentSeries(self.dom, out, prec)

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries(self.dom, {k: -c for k, c in self.coeffs.items()}, self.prec)

    def _effective_valuation(self) -> int:
        v = self.valuation()
        return self.prec if v is None else v

    def __mul__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        va, vb = self._effective_valuation(), o._effective_valuation()
        prec = min(va + o.prec, vb + self.prec)
        a, b = self.coeffs, o.coeffs
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            # a one-term factor c*t^e shifts the other factor and scales it by c
            ((e, c),) = b.items()
            return LaurentSeries(self.dom, {k + e: x for k, x in _scaled(a, c, self.dom).items()}, prec)
        lincomb = self.dom.lincomb
        out = {}
        for k in range(va + vb, prec):
            items = [(1, c, b[k - i]) for i, c in a.items() if k - i in b]
            if items:
                out[k] = lincomb(items)
        return LaurentSeries(self.dom, out, prec)

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by t**k."""
        return LaurentSeries(self.dom, {e + k: c for e, c in self.coeffs.items()}, self.prec + k)

    def _lead_split(self, what: str):
        """(v, lead, 1/lead, u) with self = lead * t^v * (1 + u(t)), u keyed
        from 1 and known below order prec - v."""
        v = self.valuation()
        if v is None:
            raise ZeroDivisionError("%s a series that vanishes to its truncation" % what)
        lead = self.coeffs[v]
        inv_lead = self.dom.inv(lead)
        u = _scaled({k - v: c for k, c in self.coeffs.items() if k != v}, inv_lead, self.dom)
        return v, lead, inv_lead, u

    def inverse(self) -> "LaurentSeries":
        """g = 1/(1 + u) term by term: g_n = -(sum of u_k g_(n-k) over
        0 < k <= n), one ``lincomb`` per coefficient."""
        v, _, inv_lead, u = self._lead_split("inverting")
        dom = self.dom
        rel = self.prec - v
        g = {0: dom.one}
        # a one-term series (u empty) is its own lead: every g_n is zero
        for n in range(1, rel if u else 1):
            c = dom.lincomb([(-1, uk, g[n - k]) for k, uk in u.items() if k <= n and n - k in g])
            if not dom.is_zero(c):
                g[n] = c
        g = _scaled(g, inv_lead, dom)
        return LaurentSeries(dom, {e - v: c for e, c in g.items()}, rel - v)

    def sqrt(self, root=None) -> "LaurentSeries":
        """Exact square root of a series of even valuation, led by root
        (by default the coefficient field's root of the lead); a root that
        does not square to the lead raises ArithmeticError.

        With self = lead * t^v * (1 + u), the root is t^(v/2) * s where
        s = root + s_1 t + ... satisfies 2 (1 + u) s' = u' s, J. C. P.
        Miller's recurrence (Knuth, TAOCP vol. 2, 4.7): s_n is the sum of
        (3k - 2n)/(2n) u_k s_(n-k) over the nonzero u_k, k <= n, one
        ``lincomb`` of at most |u| products.  It is linear in s, so it
        starts at s_0 = root and scales nothing after."""
        v, lead, _, u = self._lead_split("square root of")
        if v % 2:
            raise ArithmeticError("series has odd valuation %d, no square root" % v)
        dom = self.dom
        root = dom.sqrt(lead) if root is None else dom.coerce(root)
        if root is None or root * root != lead:
            raise ArithmeticError("leading coefficient is not a square in the coefficient field (or not root^2)")
        rel = self.prec - v
        s = {0: root}
        # a one-term series (u empty) is its lead's root: every s_n is zero
        for n in range(1, rel if u else 1):
            items = [(Fraction(3 * k - 2 * n, 2 * n), uk, s[n - k])
                     for k, uk in u.items() if k <= n and 3 * k != 2 * n and n - k in s]
            if items:
                c = dom.lincomb(items)
                if not dom.is_zero(c):
                    s[n] = c
        return LaurentSeries(dom, {e + v // 2: c for e, c in s.items()}, rel + v // 2)

    def derivative(self) -> "LaurentSeries":
        out = {}
        for k, c in self.coeffs.items():
            if k != 0:
                out[k - 1] = c * k
        return LaurentSeries(self.dom, out, self.prec - 1)

    def compose(self, inner: "LaurentSeries") -> "LaurentSeries":
        """Substitute the series variable by ``inner`` (valuation >= 1).

        The tail of the outer series contributes O(inner^prec) and the tail
        of the inner one is amplified worst by the lowest outer exponent;
        the result's truncation honours both.
        """
        self._check(inner)
        vi = inner.valuation()
        if vi is None or vi < 1:
            raise ValueError("composition needs an inner series of valuation >= 1")
        if not self.coeffs:
            return LaurentSeries.zero(self.dom, vi * self.prec)
        lo = min(self.coeffs)
        hi = max(self.coeffs)
        prec = min(vi * self.prec, (lo - 1) * vi + inner.prec)
        out = LaurentSeries.zero(self.dom, prec)
        power = inner**lo
        for k in range(lo, hi + 1):
            c = self.coeffs.get(k)
            if c is not None:
                out = out + power * c
            if k < hi:
                power = power * inner
        return out

    # -- comparison and rendering --------------------------------------------------

    def __eq__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        prec = min(self.prec, o.prec)
        for k in set(self.coeffs) | set(o.coeffs):
            if k < prec:
                a = self.coeffs.get(k, self.dom.zero)
                b = o.coeffs.get(k, self.dom.zero)
                if not self.dom.is_zero(a - b):
                    return False
        return True

    def __str__(self):
        if not self.coeffs:
            return "O(t^%d)" % self.prec
        bits = []
        for k in sorted(self.coeffs):
            c = self.dom.render(self.coeffs[k])
            if k == 0:
                mono = ""
            elif k == 1:
                mono = "t"
            else:
                mono = "t^%d" % k
            body = c if not mono else ("%s*%s" % (c, mono) if c not in ("1", "-1") else ("-" + mono if c == "-1" else mono))
            if bits and not body.startswith("-"):
                bits.append("+" + body)
            else:
                bits.append(body)
        return "%s+O(t^%d)" % ("".join(bits), self.prec)

    def __repr__(self):
        return "LaurentSeries(%s)" % self


def _scaled(coeffs: dict, k, dom) -> dict:
    """Every coefficient times k; no products when k is one."""
    if k == dom.one:
        return coeffs
    return {e: c * k for e, c in coeffs.items()}
