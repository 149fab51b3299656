"""Bundled worked example: a genus-1 family of nine 3x3 matrices over F_5.

The instance comes from the curve s^2 = r^3 + r + 1 over F_5, whose nine
rational points are all used as evaluation points, with the degree-3 divisor
D = 3*O + (r+s) (the hyperplane section r + s = 0, which misses every
rational point).  MATRICES is the frozen construction output; GENERATOR
collects their first columns.

GENERATOR_BY_EVALUATION was derived by hand, independently of the package:
its rows are the values of alpha = 1/(r+s), beta = r/(r+s), and
gamma - 3*beta - alpha (gamma = s/(r+s)) at the nine points.  The reference
basis of L(D) is a row-rescaling of these three functions, so the two
generator matrices must have equal row spaces; tests pin that down.

Local valuation patterns: the points (2,1) and (2,4) are 3-torsion and O is
the base point, so the increasing-zero-basis valuations there are (0, 1, 3)
(the order-2 slot is the Weierstrass gap); at the six generic points they
are (0, 1, 2).
"""

from __future__ import annotations

from .core import Udmg
from .curves import INFINITY, DivisorSpec, FnElement, WeierstrassCurve
from .fields import FieldSpec, make_field
from .linalg import FqMatrix

P = 5
CURVE_A = 1
CURVE_B = 1

#: Evaluation points in construction order; INFINITY is the base point O.
POINTS = ((0, 1), (4, 2), (3, 4), (0, 4), (4, 3), (3, 1), (2, 1), (2, 4), INFINITY)

DIVISOR_N = 3
DIVISOR_H = "r+s"

#: Construction output (change-of-basis matrices, one per point), frozen.
MATRICES = (
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((1, 0, 0), (4, 1, 0), (3, 1, 3)),
    ((3, 0, 0), (4, 3, 0), (4, 3, 1)),
    ((4, 0, 0), (0, 4, 0), (4, 2, 1)),
    ((3, 0, 0), (2, 3, 0), (0, 1, 1)),
    ((4, 0, 0), (2, 4, 0), (3, 3, 2)),
    ((2, 0, 0), (4, 2, 0), (1, 4, 2)),
    ((1, 0, 0), (2, 1, 0), (4, 1, 4)),
    ((0, 0, 1), (0, 1, 0), (2, 4, 3)),
)

#: First columns of MATRICES, column j evaluating the reference basis at P_j.
GENERATOR = (
    (1, 1, 3, 4, 3, 4, 2, 1, 0),
    (0, 4, 4, 0, 2, 2, 4, 2, 0),
    (0, 3, 4, 4, 0, 3, 1, 4, 2),
)

#: Hand-computed evaluations of (alpha, beta, gamma - 3 beta - alpha).
GENERATOR_BY_EVALUATION = (
    (1, 1, 3, 4, 3, 4, 2, 1, 0),
    (0, 4, 4, 0, 2, 2, 4, 2, 0),
    (0, 4, 2, 2, 0, 4, 3, 2, 1),
)

#: Increasing-zero-basis valuations at each point, in POINTS order.
POINT_VALUATIONS = (
    (0, 1, 2), (0, 1, 2), (0, 1, 2), (0, 1, 2), (0, 1, 2), (0, 1, 2),
    (0, 1, 3), (0, 1, 3), (0, 1, 3),
)

#: Lexicographically first failing allowable vector at genus 0.  It selects
#: the first columns at (2,1), (2,4), and O: the two points are negatives of
#: each other, so the function (r - 2)/(r + s) vanishes at both and at O,
#: and the three columns only span a plane.
WITNESS_GENUS0 = (0, 0, 0, 0, 0, 0, 1, 1, 1)


def field() -> FieldSpec:
    return make_field(P)


def curve() -> WeierstrassCurve:
    return WeierstrassCurve(field(), CURVE_A, CURVE_B)


def divisor() -> DivisorSpec:
    c = curve()
    return DivisorSpec(DIVISOR_N, FnElement.r(c) + FnElement.s(c))


def matrix_set(genus: int = 1) -> Udmg:
    f = field()
    mats = tuple(FqMatrix.from_rows(f, rows) for rows in MATRICES)
    return Udmg(f, 3, genus, mats)


def evaluation_generator() -> FqMatrix:
    return FqMatrix.from_rows(field(), GENERATOR_BY_EVALUATION)
