"""Frozen reference constants the staged derivation must reproduce.

Every stage of the pipeline recomputes its output from scratch and then
compares against the strings and integers below.  The strings are exact
polynomial data (parseable by mpbelyi.parse) and the integers are exact
coefficients; nothing here is ever used as an input to the computation,
only as a check on it.  A mismatch aborts the run with a stage-tagged
error rather than silently continuing.
"""

from fractions import Fraction

# -- stage: u_at_A1 ----------------------------------------------------------
# Square-root branch of the quartic at the finite basepoint, through x^2,
# and the unique (up to scale) coefficient solution making the combination
# p + q*x + r*x^2 + s*y vanish to order 3 there.

Y_SERIES_AT_BASEPOINT = "1+1/2*a*x+(1/2*b-1/8*a^2)*x^2"
U_COEFF_SOLUTION = {
    "p": "-s",
    "q": "-1/2*s*a",
    "r": "-1/2*s*b+1/8*s*a^2",
}

# -- stage: residue49 --------------------------------------------------------
# Pole-strength ratio at the two places over x = infinity forces the ratio
# r/s and pins the x^2 coefficient of the quartic.

RESIDUE_RATIO = 49
R_OVER_S = Fraction(25, 24)
B_VALUE = "1/4*a^2-25/12"

# -- stage: locate_A2 --------------------------------------------------------
# The second distinguished affine point: its x-coordinate, its
# y-coordinate times -2401 (an integer polynomial), and the tangent slope
# data there (cross-multiplied form).

A2_X = "600/49*a+576/49*c"
F2 = "-2401+705888*a*c+360300*a^2+345600*c^2"
A2_SLOPE_NUMERATOR = (
    "-1920800*c-1961617*a+847310496*c*a^2+288240100*a^3"
    "+271060992*c^3+830131200*c^2*a"
)
A2_SLOPE_PREFACTOR = Fraction(147, 2)

# -- stage: qr_at_C2 ---------------------------------------------------------
# x^3 * (minus branch of y at infinity), truncated after x^-2, and the
# resulting elimination of the degree-5 polynomial coefficients q5..q0 in
# terms of the degree-3 ones r0..r3.

Y_MINUS_BRANCH_X3 = (
    "-x^5-1/2*c*x^4+25/24*x^3-1/8*a^2*x^3+1/8*c^2*x^3-1/2*a*x^2"
    "-25/48*c*x^2+1/16*c*a^2*x^2-1/16*c^3*x^2+1/128*a^4*x+25/64*c^2*x"
    "+5/128*c^4*x-25/192*a^2*x+1/4*a*c*x+49/1152*x-3/64*c^2*a^2*x"
    "+5/128*c^3*a^2-3/256*c*a^4+1/16*a^3-25/48*a-433/768*c-3/16*c^2*a"
    "-125/384*c^3-7/256*c^5+25/128*c*a^2"
)
Q_FORMULAS = {
    "q5": "r3",
    "q4": "r2+1/2*c*r3",
    "q3": "1/8*a^2*r3+1/2*c*r2-25/24*r3+r1-1/8*c^2*r3",
    "q2": (
        "1/2*c*r1+25/48*c*r3-1/8*c^2*r2-25/24*r2+1/8*a^2*r2+r0"
        "-1/16*c*a^2*r3+1/2*a*r3+1/16*c^3*r3"
    ),
    "q1": (
        "-1/8*c^2*r1-1/16*c*a^2*r2-25/24*r1+25/48*c*r2-1/128*a^4*r3"
        "+3/64*c^2*a^2*r3+1/2*c*r0+1/16*c^3*r2+25/192*a^2*r3-25/64*c^2*r3"
        "+1/8*a^2*r1+1/2*a*r2-49/1152*r3-1/4*a*c*r3-5/128*c^4*r3"
    ),
    "q0": (
        "-1/16*a^3*r3+125/384*c^3*r3+7/256*c^5*r3-1/128*a^4*r2"
        "+1/8*a^2*r0-25/24*r0-49/1152*r2+3/64*c^2*a^2*r2+1/2*a*r1"
        "-5/128*c^4*r2+3/256*c*a^4*r3+25/192*a^2*r2+3/16*c^2*a*r3"
        "-25/128*c*a^2*r3-1/4*a*c*r2+25/48*c*r1-1/16*c*a^2*r1"
        "+1/16*c^3*r1-5/128*c^3*a^2*r3+433/768*c*r3+25/48*a*r3"
        "-1/8*c^2*r0-25/64*c^2*r2"
    ),
}

# -- stage: linear_systems ---------------------------------------------------
# Low-order vanishing condition at the first distinguished point, after
# q-elimination, scaled to primitive integer coefficients (common scale
# 2304 against the raw rational coefficients).

A1_CONDITION_PRIMITIVE = (
    "-96*r1*x-96*r0-98*r2+1152*a*x*r0+1200*x*c*r2-98*x*r3"
    "-144*x*c*a^2*r2-576*a*c*r2-576*x*a*c*r3+108*c^2*a^2*r2"
    "+108*x*c^2*a^2*r3-90*c^3*a^2*r3+27*c*a^4*r3-144*c*a^2*r1"
    "+432*c^2*a*r3-450*c*a^2*r3-288*x*c^2*r1+1200*c*r1+1152*x*a*r2"
    "-900*x*c^2*r3-900*c^2*r2+144*c^3*r1+288*x*a^2*r1-18*a^4*r2"
    "+144*x*c^3*r2+1200*a*r3-18*x*a^4*r3+1152*a*r1-90*c^4*r2"
    "-90*x*c^4*r3+300*a^2*r2+300*x*a^2*r3-144*a^3*r3+750*c^3*r3"
    "+63*c^5*r3+1152*x*c*r0+288*a^2*r0-288*c^2*r0+1299*c*r3"
)
A1_ROW_SCALE = 2304

# -- stage: determinant ------------------------------------------------------
# 4x4 determinant of the primitive-integer homogeneous system in r0..r3.
# It factors as a constant times F1^4 * F2 * F3.

DET_CONSTANT = 29365647704064
F1 = "24*c+25*a"
F3 = (
    "-24786*a^9*c+2594160450*a^2-103766418*a*c-2490394032*c^2"
    "+60289110*c^4-367482654*a^4+323616384*c^2*a^2-22842*c^9*a"
    "+1913139*c^8-793881*a^8+12150*a^10+11664*c^10+113888592*c^3*a^3"
    "+28335096*c^4*a^2-20615148*c*a^5-84035232*c^2*a^4+419560344*a^3*c"
    "-435983184*a*c^3-95264100*a*c^5+22690800*a^6+34999992*c^6"
    "-5596290*a^4*c^4-2150064*a^5*c^3+6627096*a^3*c^5+1959552*a^6*c^2"
    "+2517480*a^2*c^6-5692032*a*c^7+1215000*a^7*c-142884*c^5*a^5"
    "+20412*c^4*a^6+27216*c^6*a^4+97200*c^3*a^7+93312*c^7*a^3"
    "-36450*c^8*a^2-34992*c^2*a^8-13841287201"
)
F3_TERM_COUNT = 36
F3_CONSTANT_TERM = -13841287201  # = -(7**12)

# -- stage: k1 ---------------------------------------------------------------
# Second-order coefficient of the combination at the first distinguished
# point, on the nullspace normalized by r3 = 1.

K1_PREFACTOR = Fraction(1, 2352)
K1_FACTOR_LINEAR = "24*c+25*a"
K1_FACTOR_EVEN = (
    "243*c^8-648*a^2*c^6+5400*c^6+7776*a*c^5+486*a^4*c^4+64854*c^4"
    "-8100*c^4*a^2+129600*a*c^3-15552*c^3*a^3+345600*c^2+705888*a*c"
    "-129600*a^3*c+7776*c*a^5-81*a^8+2700*a^6+360300*a^2-64854*a^4"
    "-2401"
)
K1_DENOMINATOR = (
    "27*c^6+1755*c^4-81*c^4*a^2-864*a*c^3+14697*c^2+81*c^2*a^4"
    "-2646*c^2*a^2+864*a^3*c-288*a*c-14409*a^2+891*a^4+2401-27*a^6"
)

# -- stage: residue_equation -------------------------------------------------
# Numerator of 9*k2*yA2^2 - 25*k1 after clearing denominators: a linear
# factor times an even cofactor of degree 21 in each variable.  Only a
# sample of the cofactor's coefficients is frozen; exps are (a-exp, c-exp).

RESIDUE_EQ_COEFFS = (9, 25)
RESIDUE_EQ_LINEAR_FACTOR = "25*a+24*c"
RESIDUE_EQ_COFACTOR_DEGREE = 21
RESIDUE_EQ_COFACTOR_ANCHORS = {
    (20, 0): 76527504000000,
    (19, 1): -468348324480000,
    (18, 2): 676870467379200,
    (17, 3): 1542912026886144,
    (1, 3): -628201913088647840269231422,
    (0, 4): -449810685236937774900955707,
    (2, 0): -876053650539179213151415953,
    (1, 1): -1692722483624861493698125134,
    (0, 2): -812124909439798006329946263,
    (0, 0): 7819771121260579336605617,
}

# -- stage: resultant --------------------------------------------------------
# Eliminating c between the determinant factor F3 and the residue-equation
# cofactor leaves a product of five even univariate factors (up to an
# integer constant and powers of a).

RESULTANT_FACTORS = (
    "301*a^4+2688*a^2+36864",
    "133*a^4+896*a^2-12288",
    "4725*a^4+342405*a^2+4477456",
    "5670*a^4-1439865*a^2+13942756",
    "190005517894500*a^8+36552364751718900*a^6"
    "+7708662622309824945*a^4+69471491411890643040*a^2"
    "+1517090351363521026304",
)

# -- stage: cases ------------------------------------------------------------
# Only the quartic-in-a^2 factor with positive real roots survives; its
# discriminant certifies the field.

SURVIVOR_FACTOR_INDEX = 3
SURVIVOR_DISC = 1756989512145  # = 105 * 129357^2
SURVIVOR_DISC_SQUARE_PART = 129357
SURVIVOR_FIELD_DISC = 105
A_SQUARED_NUM = (1439865, 129357)  # t = (1439865 +/- 129357*sqrt(105))
A_SQUARED_DEN = 11340

# -- stage: certify ----------------------------------------------------------
# Closed-form model for the final certification: a cubic curve and the
# pair of degree-8 numerator data over Q(sqrt(105)), g = +/- 45*sqrt(105).

CERT_FIELD_DISC = 105
CERT_GAMMA_COEFF = 45
CERT_MODEL_F = "420*x^3-(119+9*g)*x^2+14*(1515-g)*x+420*(420-g)"
CERT_N0_NUM = "343/15552000*(39*g+17983)*(x+5)^3*(x-3)^5"
CERT_N0_DEN = "64*x-105+g"
CERT_N1_NUM = (
    "343/15552000*(39*g+17983)"
    "*(x^4-30*x^2+40*x+135/14*g-60825/14)^2"
)
CERT_N1_DEN = "64*x-105+g"
CERT_J_PLUS_APPROX = "1315.640"
CERT_J_MINUS_APPROX = "20.3167"
CERT_J_TOLERANCE = 5e-3
