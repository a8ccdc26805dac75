"""The quadratic-differential operator driving the whole derivation.

For a nonconstant function b on a genus-one model the operator sends b to
(db)^2 / (b*(1-b)), a quadratic differential written here as u * omega^2
with omega = dx/y and u a function on the curve.  The constant 1/(4*pi^2)
usually attached to it is dropped throughout; residues are reported in
those units, so a pole of order k of b carries residue -k^2.

Key exact identities used as cross-checks:
  * symmetry: b and 1-b give the same differential;
  * inversion: the differential of 1/b is -1/b times that of b.
"""

from __future__ import annotations

from .curve import FunctionFieldElement


def mp_differential(beta: FunctionFieldElement) -> FunctionFieldElement:
    """u with (d beta)^2 / (beta (1 - beta)) = u * omega^2."""
    denom = beta - beta * beta
    if not denom:
        raise ZeroDivisionError("the operator is undefined at constants 0 and 1")
    dd = beta.deriv_over_omega()
    return dd * dd * denom.inverse()


def mp_of_inverse(beta: FunctionFieldElement) -> FunctionFieldElement:
    """u for the differential of 1/beta, via the exact identity
    MP(1/b) = -MP(b)/b (cheaper than inverting beta first)."""
    return -(mp_differential(beta) / beta)
