"""Independent answers for checking udmg outputs.

Nothing here imports udmg.  Field arithmetic, rank, allowable-vector counts,
witness checks, minimum distance and SNR are re-derived from the paper's
definitions, so a wrong answer from the program cannot also be the
benchmark's expected answer.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations


class Field:
    """GF(p^m) on base-p packed reps (digit i is the coefficient of x^i)."""

    def __init__(self, p: int, m: int = 1, modulus=None):
        self.p, self.m, self.q = p, m, p ** m
        self.modulus = tuple(modulus) if modulus is not None else None
        if m > 1 and (self.modulus is None or len(self.modulus) != m + 1):
            raise ValueError("extension field needs a modulus of degree m")

    def _digits(self, a):
        out = []
        for _ in range(self.m):
            a, r = divmod(a, self.p)
            out.append(r)
        return out

    def _pack(self, digits):
        rep = 0
        for d in reversed(digits[:self.m]):
            rep = rep * self.p + d
        return rep

    def sub(self, a, b):
        if self.m == 1:
            return (a - b) % self.p
        return self._pack([(x - y) % self.p for x, y in zip(self._digits(a), self._digits(b))])

    def mul(self, a, b):
        p, m = self.p, self.m
        if m == 1:
            return a * b % p
        x, y = self._digits(a), self._digits(b)
        prod = [0] * (2 * m - 1)
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    prod[i + j] = (prod[i + j] + xi * yj) % p
        mod = self.modulus  # monic, ascending degree
        for top in range(2 * m - 2, m - 1, -1):
            c = prod[top]
            if c:
                for k in range(m + 1):
                    prod[top - m + k] = (prod[top - m + k] - c * mod[k]) % p
        return self._pack(prod)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        result, base, e = 1, a, self.q - 2
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result


def field_of(data: dict) -> Field:
    """Field of a parsed matrix-set file."""
    return Field(data["p"], data["m"], data.get("modulus"))


def columns(matrix_rows):
    """Columns of a row-major matrix, as tuples."""
    return [tuple(r[j] for r in matrix_rows) for j in range(len(matrix_rows[0]))]


def rank(field: Field, vectors) -> int:
    """Rank of a list of equal-length vectors (Gaussian elimination)."""
    rows = [list(v) for v in vectors]
    r = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        s = field.inv(rows[r][col])
        rows[r] = [field.mul(s, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def count_allowable(lengths, total: int) -> int:
    """Number of vectors 0 <= lam_i <= N_i with sum(lam) == total."""
    ways = [1] + [0] * total
    for n in lengths:
        nxt = [0] * (total + 1)
        for s, w in enumerate(ways):
            if w:
                for v in range(min(n, total - s) + 1):
                    nxt[s + v] += w
        ways = nxt
    return ways[total] if total >= 0 else 0


def spans(field: Field, cols_per_matrix, lam, K: int) -> bool:
    chosen = [c for cols, k in zip(cols_per_matrix, lam) for c in cols[:k]]
    return rank(field, chosen) == K


def witness_problem(field: Field, matrices, K: int, g: int, witness):
    """None if witness is an allowable vector whose columns fail to span."""
    lengths = [len(M[0]) for M in matrices]
    if len(witness) != len(lengths):
        return f"witness has {len(witness)} entries for {len(lengths)} matrices"
    if sum(witness) != K + g:
        return f"witness sums to {sum(witness)}, not K+g={K + g}"
    if any(not 0 <= w <= n for w, n in zip(witness, lengths)):
        return "witness entry outside [0, N_i]"
    if spans(field, [columns(M) for M in matrices], witness, K):
        return "witness columns span F_q^K"
    return None


def first_failure(field: Field, matrices, K: int, g: int):
    """Lexicographically least allowable vector whose columns do not span."""
    cols = [columns(M) for M in matrices]
    lengths = [len(c) for c in cols]
    L = len(lengths)
    tails = [sum(lengths[i:]) for i in range(L + 1)]

    def rec(i, remaining, prefix):
        if i == L:
            return None if spans(field, cols, prefix, K) else tuple(prefix)
        for v in range(max(0, remaining - tails[i + 1]), min(lengths[i], remaining) + 1):
            hit = rec(i + 1, remaining - v, prefix + [v])
            if hit is not None:
                return hit
        return None

    return rec(0, K + g, []) if tails[0] >= K + g else None


def minimal_genus(field: Field, matrices, K: int):
    total = sum(len(M[0]) for M in matrices)
    g = 0
    while first_failure(field, matrices, K, g) is not None:
        g += 1
    return g, K + g > total


def min_distance(field: Field, generator_rows) -> int:
    """d = n - (largest coordinate set on which some nonzero codeword vanishes).

    A nonzero codeword vanishes on S exactly when the columns of G in S have
    rank < k, and that family of sets is closed under taking subsets.
    """
    k = len(generator_rows)
    cols = columns(generator_rows)
    n = len(cols)
    for size in range(n, -1, -1):
        if any(rank(field, [cols[j] for j in S]) < k for S in combinations(range(n), size)):
            return n - size
    raise AssertionError("the empty set always has rank 0 < k")


def pam_weights(q: int, N: int):
    return [1 + Fraction((q - 1) * (N + 1 - i) + 1, q * N) for i in range(1, N + 1)]


def snr_full_space(q: int, N: int, L: int) -> Fraction:
    """Average power of L channels when each channel's encoding is a
    bijection of F_q^N (all messages, invertible matrices).

    Per channel the symbols are uniform and independent, so cross terms of
    mu0^2 cancel: E[mu0^2] = sum_i (q^(N-i) w_i)^2 * Var(symbol).
    """
    var = Fraction(sum((2 * x - (q - 1)) ** 2 for x in range(q)), 4 * q)
    w = pam_weights(q, N)
    return L * var * sum((q ** (N - i) * w[i - 1]) ** 2 for i in range(1, N + 1))


def snr_bounds(q: int, N: int, g: int, L: int):
    if q % 2:
        alpha = Fraction(L, 6 * q ** (2 * g * L + 2))
    else:
        alpha = Fraction(L, 2 * q ** (g * L + 4))
    beta = Fraction(L * q ** (L * g))
    return alpha * q ** (2 * N) / N ** 2, beta * q ** (2 * N)


def audit_floor(q: int, N: int, g: int, L: int) -> Fraction:
    return Fraction(q ** (2 * (L * N - (N + g - 1) - L)), N ** (2 * L))


def partition_bound(K: int, q: int, g: int) -> int:
    rhs = math.comb(K + g - 1, K - 1) * (q ** K - 1) // (q - 1)
    L = 0
    while math.comb(K - 1 + L, K - 1) <= rhs:
        L += 1
    return L


def bounds_report(K: int, q: int, g: int, lengths):
    """The size caps of the bounds command, from their formulas."""
    gamma = min(lengths)
    code_class = 1 if sum(n - 1 for n in lengths) >= K - 2 else 2
    return {
        "K": K, "q": q, "g": g,
        "defect_bound": K - 2 + (g + 1) * (q + 1),
        "class": code_class,
        "class1_bound": (g + 1) * (q + 1),
        "class2_range": [g + 3, (K - 2) // (gamma - 1)] if code_class == 2 else [],
        "gamma": gamma,
        "partition_bound": partition_bound(K, q, g) if gamma >= K - 1 else 0,
    }
