"""The quadratic-differential operator driving the whole derivation.

For a nonconstant function b on a genus-one model the operator sends b to
(db)^2 / (b*(1-b)), a quadratic differential written here as u * omega^2
with omega = dx/y and u a function on the curve.  The constant 1/(4*pi^2)
usually attached to it is dropped throughout; residues are reported in
those units, so a pole of order k of b carries residue -k^2.

u is computed on polynomials.  For b = P + y*Q on y^2 = f write
b = (A + y*B)/D with D = P.den*Q.den, A = P.num*Q.den and B = Q.num*P.den.
Then
  db/omega = (G + y*H)/D^2,  G = f*(B'D - BD') + f'*B*D/2,  H = A'D - AD',
  b - b^2  = (S + y*T)/D^2,  S = A*(D - A) - f*B^2,        T = B*(D - 2A),
  (G + y*H)^2 = U + y*V,     U = G^2 + f*H^2,              V = 2*G*H,
so u = (U + y*V)/(D^2*S) when T = 0 (every b with Q = 0), and otherwise
u = ((U*S - f*V*T) + y*(V*S - U*T))/(D^2*(S^2 - f*T^2)).  Only the two
parts of u are reduced, one gcd each.

Key exact identities used as cross-checks:
  * symmetry: b and 1-b give the same differential;
  * inversion: the differential of 1/b is -1/b times that of b.
"""

from __future__ import annotations

from .curve import FunctionFieldElement
from .poly import RationalFunction


def mp_differential(beta: FunctionFieldElement) -> FunctionFieldElement:
    """u with (d beta)^2 / (beta (1 - beta)) = u * omega^2, from
    beta = (A + y*B)/D as in the module docstring: (U + y*V)/(D^2*S) when
    T = 0, else ((U*S - f*V*T) + y*(V*S - U*T))/(D^2*(S^2 - f*T^2)).
    Raises ZeroDivisionError when S = T = 0, that is beta = 0 or 1."""
    curve = beta.curve
    f = curve.f
    p, q = beta.p, beta.q
    D = p.den * q.den
    A = p.num * q.den
    B = q.num * p.den
    S = A * (D - A) - f * (B * B)
    T = B * (D - A - A)
    if not S and not T:
        raise ZeroDivisionError("the operator is undefined at constants 0 and 1")
    dD = D.derivative("x")
    half = f.dom.inv(f.dom.coerce(2))
    G = f * (B.derivative("x") * D - B * dD) + (f.derivative("x") * B * D).scale(half)
    H = A.derivative("x") * D - A * dD
    U = G * G + f * (H * H)
    V = (G * H).scale(2)
    DD = D * D
    if not T:
        num_p, num_q, den = U, V, DD * S
    else:
        num_p = U * S - f * (V * T)
        num_q = V * S - U * T
        den = DD * (S * S - f * (T * T))
    return FunctionFieldElement._trusted(
        RationalFunction(num_p, den), RationalFunction(num_q, den), curve
    )


def mp_of_inverse(beta: FunctionFieldElement) -> FunctionFieldElement:
    """u for the differential of 1/beta, via the exact identity
    MP(1/b) = -MP(b)/b (cheaper than inverting beta first)."""
    return -(mp_differential(beta) / beta)
