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
"""

from __future__ import annotations

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

    @classmethod
    def uniformizer(cls, dom, prec: int):
        return cls(dom, {1: dom.one}, prec)

    @classmethod
    def from_coeff_list(cls, dom, start: int, values, prec: int):
        """values[i] is the coefficient of t**(start+i)."""
        return cls(dom, {start + i: dom.coerce(v) for i, v in enumerate(values)}, prec)

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
        if self.dom != other.dom:
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
        out: dict = {}
        for i, ci in self.coeffs.items():
            for j, cj in o.coeffs.items():
                k = i + j
                if k >= prec:
                    continue
                prod = ci * cj
                cur = out.get(k)
                out[k] = prod if cur is None else cur + prod
        return LaurentSeries(self.dom, out, prec)

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by t**k."""
        return LaurentSeries(self.dom, {e + k: c for e, c in self.coeffs.items()}, self.prec + k)

    def inverse(self) -> "LaurentSeries":
        v = self.valuation()
        if v is None:
            raise ZeroDivisionError("inverting a series that vanishes to its truncation")
        lead = self.coeffs[v]
        rel = self.prec - v
        inv_lead = self.dom.div(self.dom.one, lead)
        # u = self / (lead * t^v) - 1 has valuation >= 1, known below order rel
        u = {k - v: c * inv_lead for k, c in self.coeffs.items() if k != v}
        g = {0: self.dom.one}
        for n in range(1, rel):
            s = self.dom.zero
            for k, uk in u.items():
                if 0 < k <= n:
                    gk = g.get(n - k)
                    if gk is not None:
                        s = s + uk * gk
            if not self.dom.is_zero(s):
                g[n] = -s
        out = {e - v: c * inv_lead for e, c in g.items()}
        return LaurentSeries(self.dom, out, rel - v)

    def sqrt(self) -> "LaurentSeries":
        """Exact square root: valuation must be even and the leading
        coefficient a square in the coefficient field.

        With self = lead * t^v * (1 + u), the root is root(lead) * t^(v/2)
        * s where s = 1 + s_1 t + ... solves s^2 = 1 + u term by term:
        s_n = (u_n - s_(n/2)^2)/2 - sum of s_i s_(n-i) over 0 < i < n/2,
        the square present only for even n.  Each unordered pair of the
        convolution is multiplied once, so the window of n terms costs
        about n^2/4 products."""
        v = self.valuation()
        if v is None:
            raise ZeroDivisionError("square root of a series that vanishes to its truncation")
        if v % 2:
            raise ArithmeticError("series has odd valuation %d, no square root" % v)
        lead = self.coeffs[v]
        root = self.dom.sqrt(lead)
        if root is None:
            raise ArithmeticError("leading coefficient is not a square in the coefficient field")
        rel = self.prec - v
        inv_lead = self.dom.div(self.dom.one, lead)
        u = {k - v: c * inv_lead for k, c in self.coeffs.items() if k != v}
        s = {0: self.dom.one}
        half = self.dom.div(self.dom.one, self.dom.coerce(2))
        for n in range(1, rel):
            acc = u.get(n, self.dom.zero)
            mid = s.get(n // 2) if n % 2 == 0 else None
            if mid is not None:
                acc = acc - mid * mid
            cn = acc * half
            pairs = None
            for i in range(1, (n + 1) // 2):
                si, sj = s.get(i), s.get(n - i)
                if si is not None and sj is not None:
                    pairs = si * sj if pairs is None else pairs + si * sj
            if pairs is not None:
                cn = cn - pairs
            if not self.dom.is_zero(cn):
                s[n] = cn
        out = {e + v // 2: c * root for e, c in s.items()}
        return LaurentSeries(self.dom, out, rel + v // 2)

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
