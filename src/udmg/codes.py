"""Linear vector codes attached to decodable matrix sets, plus size bounds.

The first-column code of a valid matrix set with L >= K + g members is an
[L, K] code of Singleton defect at most g; its minimum distance comes from a
Gray-code scan of one codeword per projective point.  The bounds report
collects all the arithmetic caps on L in terms of (K, q, g) and the lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Udmg, _verify_fast
from .errors import (
    HypothesisUnmetError,
    RankDeficientError,
    TooLargeError,
    TooShortError,
)
from .linalg import FqMatrix, rank

MAX_CODEWORDS = 1 << 22


@dataclass(frozen=True)
class LinearCode:
    """[n, k] code given by a full-rank generator matrix; d filled on demand."""

    field: object
    n: int
    k: int
    generator: FqMatrix
    d: int = None

    def __post_init__(self):
        if self.generator.rows != self.k or self.generator.cols != self.n:
            raise ValueError("generator shape disagrees with (k, n)")

    @property
    def defect(self) -> int:
        if self.d is None:
            raise ValueError("minimum distance not computed yet")
        return self.n + 1 - self.d - self.k


def min_distance(code: LinearCode) -> int:
    """Minimum Hamming weight over the nonzero codewords; 0 if G is rank deficient.

    Block i scans the messages led by a 1 at position i (weight ignores scaling); their
    trailing F_p digits run in modular Gray order, so each step adds one row x^d * G_j.
    """
    f, n, k = code.field, code.n, code.k
    if f.q ** k > MAX_CODEWORDS:
        raise TooLargeError(f"{f.q}^{k} codewords exceed the scan guard")
    G = code.generator
    if rank(G) < k:
        return 0
    best = n + 1
    for i in range(k):
        steps = [tuple(f.mul(f.p ** d, e) for e in G.row(j))
                 for j in range(i + 1, k) for d in range(f.m)]
        word = G.vecmat([0] * i + [1] + [0] * (k - 1 - i))
        for s in range(f.p ** len(steps)):  # step s changes digit v_p(s) by +1
            if s:
                j = next(j for j in range(len(steps)) if s % f.p ** (j + 1))
                word = tuple(map(f.add, word, steps[j]))
            best = min(best, n - word.count(0))
            if best == 1:
                return best
    return best


def first_column_code(u: Udmg, compute_distance: bool = True,
                      verified: bool = False) -> LinearCode:
    """[L, K] code generated by the first columns of a valid matrix set.

    Requires L >= K + g; the generator then has rank K and the Singleton
    defect is at most g, both of which are asserted.  verified=True skips
    the scan of a set the caller has already verified at its genus.
    """
    if u.K < 1:
        raise HypothesisUnmetError("a code needs K >= 1")
    if u.L < u.K + u.g:
        raise TooShortError(f"need L >= K + g = {u.K + u.g}, have {u.L}")
    if not (verified or _verify_fast(u)):
        raise RankDeficientError("matrix set fails verification at its genus")
    G = FqMatrix.from_rows(
        u.field, [[M.col(0)[i] for M in u.matrices] for i in range(u.K)])
    if rank(G) != u.K:
        raise RankDeficientError("first-column generator is rank deficient")
    code = LinearCode(u.field, u.L, u.K, G)
    if compute_distance:
        d = min_distance(code)
        code = LinearCode(u.field, u.L, u.K, G, d)
        if code.defect > u.g:
            raise AssertionError("Singleton defect exceeded the genus")
    return code


def duplicated(u: Udmg, g: int) -> Udmg:
    """Repeat each matrix of a genus-0 set g+1 times, declaring genus g.

    This is the sharpness construction: applied to a (q+1, 2, 2, q, 0) set it
    meets the class-1 cap (g+1)(q+1) with equality.
    """
    if u.g != 0:
        raise HypothesisUnmetError("duplication starts from a genus-0 set")
    if g < 0:
        raise ValueError("genus must be non-negative")
    mats = tuple(M for M in u.matrices for _ in range(g + 1))
    return Udmg(u.field, u.K, g, mats)


@dataclass(frozen=True)
class BoundReport:
    """Arithmetic caps on the size L of a nondegenerate matrix set.

    defect_bound      : L <= K - 2 + (g+1)(q+1), always applicable (K >= 2).
    class1_bound      : L <= (g+1)(q+1) when sum(N_i - 1) >= K - 2.
    class2_range      : (g+3, floor((K-2)/(gamma-1))) otherwise.
    partition_bound   : largest L with C(K-2+L, K-1) <= C(K+g-1, K-1)(q^K-1)/(q-1),
                        valid when every N_i >= K - 1.
    asmds_bound       : length cap n <= k - 2 + (q+1)(s+1) for an [n, k] code of
                        Singleton defect s (reported when n, k, s are supplied).
    """

    K: int
    q: int
    g: int
    lengths: tuple
    defect_bound: int
    code_class: int  # 1, 2, or 0 when no length vector qualifies
    class1_bound: int
    class2_range: tuple
    gamma: int
    partition_bound: int
    asmds_bound: int
    asmds_holds: bool
    notes: tuple


def partition_bound(K: int, q: int, g: int) -> int:
    """Largest L passing the partition-count inequality (monotone scan)."""
    rhs = math.comb(K + g - 1, K - 1) * (q ** K - 1) // (q - 1)
    L = 0
    while math.comb(K - 2 + (L + 1), K - 1) <= rhs:
        L += 1
    return L


def bounds(K: int, q: int, g: int, lengths=None, nks=None) -> BoundReport:
    """Populate every applicable bound; unmet hypotheses are named in notes."""
    if K < 2:
        raise HypothesisUnmetError("size bounds need K >= 2")
    if q < 2:
        raise HypothesisUnmetError("alphabet cardinality must be >= 2")
    if g < 0:
        raise HypothesisUnmetError("genus must be >= 0")
    notes = []
    defect_bound = K - 2 + (g + 1) * (q + 1)
    code_class = 0
    class1 = (g + 1) * (q + 1)
    class2 = None
    gamma = 0
    part = None
    if lengths is not None:
        lengths = tuple(int(n) for n in lengths)
        if any(n < 1 for n in lengths):
            raise HypothesisUnmetError("lengths must be positive")
        gamma = min(lengths)
        if gamma < 2:
            notes.append("class split needs every N_i >= 2")
        else:
            code_class = 1 if sum(n - 1 for n in lengths) >= K - 2 else 2
            if code_class == 2:
                class2 = (g + 3, (K - 2) // (gamma - 1))
        if gamma >= K - 1:
            part = partition_bound(K, q, g)
        else:
            notes.append("partition bound needs every N_i >= K - 1")
    else:
        notes.append("no length vector supplied; class bounds not evaluated")
    asmds = 0
    asmds_holds = True
    if nks is not None:
        n, k, s = nks
        if s < 0:
            raise HypothesisUnmetError("Singleton defect must be >= 0")
        asmds = k - 2 + (q + 1) * (s + 1)
        asmds_holds = n <= asmds
    return BoundReport(
        K=K, q=q, g=g, lengths=lengths or (),
        defect_bound=defect_bound,
        code_class=code_class,
        class1_bound=class1,
        class2_range=class2 or (),
        gamma=gamma,
        partition_bound=part if part is not None else 0,
        asmds_bound=asmds,
        asmds_holds=asmds_holds,
        notes=tuple(notes))
