import gc
import math
import random
import sys
from contextlib import contextmanager
from itertools import accumulate, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from udmg import core, reference
from udmg.core import (
    Chain,
    Udmg,
    Udvsg,
    allowable_vectors,
    matrices_from_chains,
    minimal_genus,
    prune,
    quotient,
    realize,
    truncate,
    verify,
    verify_chains,
    verify_naive,
)
from udmg.cli import matrixset_to_text
from udmg.core import QuotientResult, VerifyReport, _count_allowable, _least_genus
from udmg.errors import HypothesisUnmetError, InvalidInputError, LengthMismatchError, NotProperSubError
from udmg.fields import field_from_order, make_field
from udmg.linalg import FqMatrix, Subspace, quotient_map, rref_rows, subspace_sum

F2, F3, F4, F5 = make_field(2), make_field(3), make_field(2, 2), make_field(5)
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def identity_udmg(field, K, g=0, copies=1):
    eye = FqMatrix.identity(field, K)
    return Udmg(field, K, g, (eye,) * copies)


def random_udmg(rng, field, K, lengths, g):
    mats = tuple(
        FqMatrix(field, K, n, tuple(rng.randrange(field.q) for _ in range(K * n)))
        for n in lengths)
    return Udmg(field, K, g, mats)


# -- allowable vectors ---------------------------------------------------------

def test_allowable_examples():
    vs = list(allowable_vectors((1, 1, 1), 2, 0))
    assert vs == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]  # lexicographic
    assert (3, 1, 0, 0, 0, 0, 0, 0, 0) in set(allowable_vectors((3,) * 9, 3, 1))
    # sums are pinned to K + g, so the three-ones vector lives at genus 0
    assert (0, 0, 0, 0, 0, 1, 1, 1, 0) in set(allowable_vectors((3,) * 9, 3, 0))
    assert list(allowable_vectors((2, 2), 3, 2)) == []


def _count_formula(lengths, total):
    # inclusion-exclusion for capped compositions
    L = len(lengths)
    acc = 0
    for mask in range(1 << L):
        shift = sum(lengths[i] + 1 for i in range(L) if mask >> i & 1)
        sign = -1 if bin(mask).count("1") % 2 else 1
        top = total - shift + L - 1
        if top >= L - 1:
            acc += sign * math.comb(top, L - 1)
    return acc


def test_allowable_count_identity():
    for L in range(1, 5):
        for lengths in product(range(1, 5), repeat=L):
            for K in range(1, 5):
                for g in range(3):
                    got = sum(1 for _ in allowable_vectors(lengths, K, g))
                    assert got == _count_formula(lengths, K + g)


def count_by_dp(lengths, total):
    """The count of allowable vectors by the direct DP, one sum of up to n + 1 terms
    per total and member: the oracle of core._count_allowable's running sums."""
    if not 0 <= total <= sum(lengths):
        return 0
    ways = [1] + [0] * total
    for n in lengths:
        ways = [sum(ways[t - v] for v in range(min(n, t) + 1)) for t in range(total + 1)]
    return ways[total]


def test_count_by_running_sums_matches_the_dp():
    rng = random.Random(17)
    cases = [((), 0), ((), 1), ((0,), 0), ((0, 0), 1), ((3,), -1), ((3,), 4), ((2, 2), 5),
             ((1,) * 40, 12), ((40,), 12), ((7, 0, 7), 7), ((5, 5), 10)]
    cases += [([rng.randint(0, 8) for _ in range(rng.randint(1, 14))], rng.randint(-2, 40))
              for _ in range(1500)]
    for lengths, total in cases:
        assert _count_allowable(lengths, total) == count_by_dp(lengths, total)
    # exact integers past 2^53: 30 members of 30 steps, total 450
    big = _count_allowable([30] * 30, 450)
    assert type(big) is int and big == count_by_dp([30] * 30, 450) > 2 ** 53


@given(st.lists(st.integers(1, 5), min_size=1, max_size=5),
       st.integers(1, 5), st.integers(0, 3), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_allowable_vectors_shape(lengths, K, g, rng):
    lengths = tuple(lengths)
    vs = list(allowable_vectors(lengths, K, g))
    assert vs == sorted(vs)  # lexicographic order
    assert len(set(vs)) == len(vs)
    for lam in vs:
        assert sum(lam) == K + g
        assert all(0 <= x <= n for x, n in zip(lam, lengths))
    assert_agrees_with_oracles(random_udmg(rng, F2, K, lengths, g))


# -- verification ----------------------------------------------------------------

def test_identity_valid():
    rep = verify(identity_udmg(F5, 3))
    assert rep.valid and rep.checked == 1


def test_reference_fixture(ref_udmg):
    assert verify(ref_udmg).valid
    rep0 = verify(ref_udmg.with_genus(0))
    assert not rep0.valid
    assert rep0.witness == reference.WITNESS_GENUS0


def test_near_miss_rejected(near_miss_udmg):
    rep = verify(near_miss_udmg)
    assert not rep.valid
    assert rep.witness == (0, 0, 0, 0, 0, 1, 1, 1, 1)
    rep0 = verify(near_miss_udmg.with_genus(0))
    assert not rep0.valid
    assert rep0.witness == (0, 0, 0, 0, 0, 0, 1, 1, 1)
    # the three first columns at positions 6, 7, 8 only span a plane
    cols = [near_miss_udmg.matrices[i].col(0) for i in (5, 6, 7)]
    from udmg.linalg import rank
    assert rank(FqMatrix.from_rows(F5, cols)) == 2


def test_verify_thread_count_invariance(ref_udmg):
    seq = verify(ref_udmg.with_genus(0), threads=1)
    par = verify(ref_udmg.with_genus(0), threads=4)
    assert (seq.valid, seq.witness, seq.checked) == (par.valid, par.witness, par.checked)


def test_vacuous_verify():
    u = Udmg(F2, 3, 2, (FqMatrix.identity(F2, 3).prefix_cols(2),))
    rep = verify(u)  # total length 2 < K + g = 5
    assert rep.valid and rep.vacuous and rep.checked == 0


def test_genus_past_the_total_length_is_vacuous_without_counting():
    # the count of allowable vectors would take K + g + 1 entries per member
    u = identity_udmg(F5, 3, g=10**11, copies=4)
    for rep in (verify(u), verify_chains(realize(u))):
        assert (rep.valid, rep.witness, rep.checked, rep.vacuous) == (True, None, 0, True)


# -- the annihilator scan, kept as the oracle of the image scan in core._scan ------

def profile(ops, ann, steps):
    """(a, e, slope) of one member's steps mapped to F_q^k by k <= 2 functionals (ann).

    a counts the leading steps whose image is zero.  When k = 2 the first
    nonzero image fixes the one line of F_q^2 the member can stay on, keyed by
    slope (-1 if vertical, None if none), and e counts the steps on it.
    """
    dot, mul, div, _ = ops
    phi, psi = ann[0], ann[1] if len(ann) == 2 else None
    a, e, slope = 0, 0, None
    for step in steps:
        for vec in step:
            x = dot(phi, vec)
            y = dot(psi, vec) if psi else 0
            if not (x or y):
                continue
            if psi is None:
                return a, e, slope
            if slope is None:
                slope, x0, y0 = (div(y, x) if x else -1), x, y
            elif mul(x, y0) != mul(y, x0):
                return a, e, slope
        if slope is None:
            a += 1
        else:
            e += 1
    return a, e, slope


def method_ops(field):
    """(dot, mul, div, axpy) from the FieldSpec methods, so the oracles share no
    row_ops closure with the scan; axpy(t, ys, xs) is [x - t*y for x, y in zip(xs, ys)]."""
    sub, mul = field.sub, field.mul
    return (field.dot, mul, field.div,
            lambda t, ys, xs: [sub(x, mul(t, y)) for x, y in zip(xs, ys)])


def _annihilate(ops, ann: list, vec) -> list:
    """Basis of the annihilator of W + <vec>, given one (ann) of W's; ops are
    method_ops(field).

    vec in W leaves ann as is.  Else the first phi with c = phi(vec) != 0 is
    dropped, and each later psi becomes psi - (psi(vec) / c) * phi.
    """
    dot, _, div, axpy = ops
    dots = [dot(phi, vec) for phi in ann]
    for k, c in enumerate(dots):
        if c:
            break
    else:
        return ann
    pivot = ann[k]
    return ann[:k] + [axpy(div(d, c), pivot, phi) if d else phi
                      for phi, d in zip(ann[k + 1:], dots[k + 1:])]


def annihilator_scan(field, K, g, steps):
    """The scan as it was before it carried images: each depth keeps K - rank
    functionals vanishing on the span so far and takes one dot product per
    functional for each new vector, and the tail profiles members by dots."""
    lengths = [len(s) for s in steps]
    checked = _count_allowable(lengths, K + g)
    if not checked:
        return VerifyReport(True, None, 0, vacuous=True)
    ops = method_ops(field)
    L = len(steps)
    tails = [sum(lengths[i:]) for i in range(L + 1)]

    def tail(i, v, ann, remaining):
        if not ann:
            return None
        budget = remaining - v
        starts = [v] + [0] * (L - i - 1)
        prof = [profile(ops, ann, s[o:o + budget]) for s, o in zip(steps[i:], starts)]
        zeros, along = sum(a for a, _, _ in prof), {}
        for _, e, slope in prof:
            along[slope] = along.get(slope, 0) + e
        best = None
        for slope, run in along.items():
            if zeros + run < budget:
                continue
            z = [a + (e if s == slope else 0) for a, e, s in prof]
            rest, room, lam = budget, sum(z), []
            for zj, o in zip(z, starts):
                room -= zj
                x = max(0, rest - room)
                rest -= x
                lam.append(o + x)
            best = min(best or lam, lam)
        return None if best is None else tuple(best)

    def walk(i, ann, remaining):
        if remaining == 0:
            return (0,) * (L - i)
        for v in range(min(lengths[i], remaining) + 1):
            if v:
                for vec in steps[i][v - 1]:
                    ann = _annihilate(ops, ann, vec)
                if len(ann) <= 2:
                    return tail(i, v, ann, remaining)
            if v >= remaining - tails[i + 1]:
                rest = walk(i + 1, ann, remaining - v)
                if rest is not None:
                    return (v,) + rest
        return None

    ann = [[int(r == c) for c in range(K)] for r in range(K)]
    witness = tail(0, 0, ann, K + g) if K <= 2 else walk(0, ann, K + g)
    return VerifyReport(witness is None, witness, checked)


def oracle_verify(u):
    steps = [[(M.col(j),) for j in range(M.cols)] for M in u.matrices]
    return annihilator_scan(u.field, u.K, u.g, steps)


def oracle_verify_chains(v):
    steps = [[V.vectors for V in chain.subspaces] for chain in v.chains]
    return annihilator_scan(v.field, v.K, v.g, steps)


def assert_agrees_with_oracles(u):
    rep = verify(u)
    assert rep == oracle_verify(u)
    naive = verify_naive(u)
    # a failing superset has a failing sub-vector before it in lex order, so
    # the naive least failure sums to K + g and is verify's witness
    assert (rep.valid, rep.witness, rep.vacuous) == (naive.valid, naive.witness, naive.vacuous)
    assert rep.checked == sum(1 for _ in allowable_vectors(u.lengths, u.K, u.g))
    assert verify_chains(realize(u)) == rep


def test_oracle_equivalence_sample():
    rng = random.Random(7)
    for _ in range(120):
        field = rng.choice([F2, F3])
        K = rng.randint(1, 3)
        L = rng.randint(1, 3)
        lengths = [rng.randint(1, 3) for _ in range(L)]
        g = rng.randint(0, 2)
        assert_agrees_with_oracles(random_udmg(rng, field, K, lengths, g))


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([2, 3, 13, 4093, 4099, 1048573]), st.data())
def test_oracle_equivalence_on_both_sides_of_the_inverse_table(p, data):
    # p <= TABLE_MAX_ORDER divides through row_ops' inverse table, larger p through pow;
    # entries near 0 and -1 make dependent columns, so failures occur at every p
    field = make_field(p)
    entry = st.one_of(st.sampled_from([0, 1, 2 % p, p - 1]), st.integers(0, p - 1))
    K = data.draw(st.integers(1, 4))
    lengths = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    mats = tuple(FqMatrix(field, K, n, tuple(data.draw(entry) for _ in range(K * n)))
                 for n in lengths)
    assert_agrees_with_oracles(Udmg(field, K, data.draw(st.integers(0, 2)), mats))


def assert_agreement_exhaustive(field):
    """Every set over field with K = 2, at most two members of at most two columns."""
    seen = 0
    for L in (1, 2):
        for lengths in product((1, 2), repeat=L):
            for entries in product(range(field.q), repeat=2 * sum(lengths)):
                mats, at = [], 0
                for n in lengths:
                    mats.append(FqMatrix(field, 2, n, entries[at:at + 2 * n]))
                    at += 2 * n
                for g in (0, 1):
                    assert_agrees_with_oracles(Udmg(field, 2, g, tuple(mats)))
                    seen += 1
    return seen


def test_oracle_equivalence_exhaustive_gf2():
    assert assert_agreement_exhaustive(F2) == 840


def test_oracle_equivalence_exhaustive_gf3():
    assert assert_agreement_exhaustive(F3) == 2 * (3 ** 2 + 2 * 3 ** 4 + 2 * 3 ** 6 + 3 ** 8)


def test_oracle_equivalence_height_zero():
    # F_q^0 is spanned by nothing, so every set of height 0 is valid
    for lengths in ((), (1,), (2, 1)):
        mats = tuple(FqMatrix(F3, 0, n, ()) for n in lengths)
        for g in (0, 1, 3):
            assert_agrees_with_oracles(Udmg(F3, 0, g, mats))
            assert verify(Udmg(F3, 0, g, mats)).valid


# Prime fields on both sides of TABLE_MAX_ORDER, table fields, and extension
# fields above the table limit (packed GF(2^13), digit-list GF(3^8)).
SCAN_FIELDS = [make_field(p, m) for p, m in
               ((2, 1), (3, 1), (13, 1), (4099, 1), (2, 2), (3, 2), (2, 4), (5, 2), (2, 13), (3, 8))]


def special_entries(field):
    """Entries near 0 and -1 make dependent columns and shared lines in every field."""
    q = field.q
    return st.one_of(st.sampled_from([0, 1, 2 % q, field.neg(1)]), st.integers(0, q - 1))


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(SCAN_FIELDS), st.data())
def test_scan_matches_the_annihilator_oracle(field, data):
    # columns are multiples of a few drawn vectors, or drawn afresh, so sets both
    # pass and fail, in the walk and in the tail; K up to 6 walks several columns
    K = data.draw(st.integers(1, 6))
    entry = special_entries(field)
    palette = data.draw(st.lists(st.tuples(*[entry] * K), min_size=1, max_size=K + 1))
    mats = []
    for n in data.draw(st.lists(st.integers(1, K + 2), min_size=2, max_size=4)):
        cols = [tuple(field.mul(data.draw(entry), x) for x in data.draw(st.sampled_from(palette)))
                if data.draw(st.booleans()) else data.draw(st.tuples(*[entry] * K))
                for _ in range(n)]
        mats.append(columns_matrix(field, K, cols))
    u = Udmg(field, K, data.draw(st.integers(0, 3)), tuple(mats))
    rep = verify(u)
    assert rep == oracle_verify(u)
    assert verify_chains(realize(u)) == oracle_verify_chains(realize(u)) == rep


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(SCAN_FIELDS), st.data())
def test_chain_scan_matches_the_annihilator_oracle(field, data):
    # closely nested chains: spans of prefixes of drawn vectors that grow by at most one
    # vector a step, so chains start at 0, repeat a subspace and hold dependent vectors;
    # the oracle adds each subspace's whole basis
    K = data.draw(st.integers(1, 5))
    entry = special_entries(field)
    chains = []
    for _ in range(data.draw(st.integers(1, 4))):
        vecs = data.draw(st.lists(st.tuples(*[entry] * K), min_size=1, max_size=K + 2))
        grows = data.draw(st.lists(st.integers(0, 1), min_size=1, max_size=len(vecs)))
        chains.append(Chain(tuple(Subspace.from_vectors(field, K, vecs[:n])
                                  for n in accumulate(grows))))
    v = Udvsg(field, K, data.draw(st.integers(0, 3)), tuple(chains))
    rep = verify_chains(v)
    assert rep == oracle_verify_chains(v)
    assert rep.vacuous or rep.witness == least_failure_by_rref(v)


def test_scan_matches_the_annihilator_oracle_exhaustive_gf4():
    # every set of three columns in F_4^2, split every way into members
    seen = 0
    for shape in ((3,), (2, 1), (1, 2), (1, 1, 1)):
        at = [sum(shape[:i]) for i in range(len(shape) + 1)]
        for entries in product(range(4), repeat=6):
            cols = [entries[2 * c:2 * c + 2] for c in range(3)]
            mats = tuple(columns_matrix(F4, 2, cols[a:b]) for a, b in zip(at, at[1:]))
            for g in (0, 1):
                u = Udmg(F4, 2, g, mats)
                assert verify(u) == oracle_verify(u)
                seen += 1
    assert seen == 4 * 2 * 4 ** 6


class ReadLog(list):
    """Root entries in the order read; tail_reads holds (entry, i, v, budget) for each
    read the tail makes, i, v and budget being the tail's own locals."""

    def __init__(self):
        super().__init__()
        self.tail_reads = []


class LoggedRow(list):
    """A row the scan carries, logging the root entry of each single entry read."""

    def __init__(self, items, log, at=0):
        super().__init__(items)
        self.log, self.at = log, at

    def __getitem__(self, k):
        if isinstance(k, slice):  # a descent drops the entries of the member left
            return LoggedRow(super().__getitem__(k), self.log, self.at + k.indices(len(self))[0])
        self.log.append(self.at + k)
        caller = sys._getframe(1)
        if caller.f_code.co_name == "tail":
            self.log.tail_reads.append((self.at + k, *map(caller.f_locals.get, ("i", "v", "budget"))))
        return super().__getitem__(k)


def logged_reads(monkeypatch):
    """The root entries (one per column, members in order) whose images the
    scan reads, in the order read; a read from each of k rows logs the entry k times.
    An image the tail forms from the last elimination reads the pivot row too."""
    from udmg import core

    log, images, row_ops_ = ReadLog(), core._images, core.row_ops

    def logged_row_ops(field):
        mul, div, axpy, sub_mul = row_ops_(field)
        return mul, div, lambda t, ys, xs: LoggedRow(axpy(t, ys, xs), log, xs.at), sub_mul

    monkeypatch.setattr(core, "_images", lambda K, matrices: [LoggedRow(row, log)
                                                              for row in images(K, matrices)])
    monkeypatch.setattr(core, "row_ops", logged_row_ops)
    return log


def test_no_vector_is_reduced_once_the_span_is_full(monkeypatch):
    reads = logged_reads(monkeypatch)
    # K = 2 is decided by the closed-form tail alone, K = 3 walks one column first
    for K in (2, 3):
        eye = [tuple(int(r == c) for r in range(K)) for c in range(K)]
        x = (1,) * K
        cols = (*eye, x, x)
        M = FqMatrix(F5, K, K + 2, tuple(c[i] for i in range(K) for c in cols))
        reads.clear()
        assert verify(Udmg(F5, K, 2, (M,))).valid
        # one member, one column a step: entry c is column c
        assert set(range(K)) <= set(reads)
        assert not {K, K + 1} & set(reads)


def test_tail_reads_only_its_windows(monkeypatch, ref_udmg):
    # a tail at member i, offset v, with budget R left reads member i's columns v to
    # v + R - 1 and each later member's first R columns, and nothing else, also where
    # it forms its images from the elimination the walk left to it.  On the valid
    # constructions every member leaves its line early; in the copy whose member 1
    # has twice its first column as its second, that member stays on a line
    # through a budget of two, so tails fail, reading windows to the end
    from udmg.curves import genus0_udmg

    reads = logged_reads(monkeypatch)
    F13 = make_field(13)
    line = genus0_udmg(F13, list(range(9)), 5).udmg
    M0, M1 = line.matrices[:2]
    bad = FqMatrix.from_rows(F13, [[r[0], 2 * r[0] % 13, *r[2:]] for r in M1.to_rows()])
    corrupt = Udmg(F13, 5, 0, (M0, bad, *line.matrices[2:]))
    for u, valid in ((ref_udmg, True), (line, True), (corrupt, False)):
        reads.tail_reads.clear()
        assert verify(u).valid is valid
        where = [(j, k) for j, n in enumerate(u.lengths) for k in range(n)]
        assert reads.tail_reads
        for c, i, v, budget in reads.tail_reads:
            j, k = where[c]
            assert (j == i and v <= k < v + budget) or (j > i and k < budget), (c, i, v, budget)


# -- the closed-form tail: subtrees with at most two functionals left ----------

def columns_matrix(field, K, cols):
    return FqMatrix(field, K, len(cols), tuple(c[i] for i in range(K) for c in cols))


def canonical_column_runs(n, K):
    """Column sequences over GF(2) in which each new independent column is the
    next unit vector: one per orbit of GL_K(F_2), which keeps every rank."""
    def rec(n, r):
        if n == 0:
            yield ()
            return
        for coeffs in product((0, 1), repeat=r):
            for rest in rec(n - 1, r):
                yield (coeffs + (0,) * (K - r),) + rest
        if r < K:
            unit = tuple(int(i == r) for i in range(K))
            for rest in rec(n - 1, r + 1):
                yield (unit,) + rest
    return rec(n, 0)


def test_tail_agrees_exhaustive_gf2_k3():
    # every set of members of at most two columns, four or five in all and at
    # most three members, up to a change of basis of F_2^3 (which keeps every
    # verdict and witness)
    seen = 0
    for n in (4, 5):
        shapes = [c for L in (2, 3) for c in product((1, 2), repeat=L) if sum(c) == n]
        for cols in canonical_column_runs(n, 3):
            for shape in shapes:
                at = [sum(shape[:i]) for i in range(len(shape) + 1)]
                mats = tuple(columns_matrix(F2, 3, cols[a:b]) for a, b in zip(at, at[1:]))
                for g in (0, 1):
                    assert_agrees_with_oracles(Udmg(F2, 3, g, mats))
                    seen += 1
    assert seen == 2 * (4 * 66 + 3 * 342)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_tail_agrees_on_sets_with_shared_lines(data):
    # columns are multiples of a few drawn vectors, so members share lines,
    # start with zero images and stay on a line for several columns
    field = data.draw(st.sampled_from([F2, F3, F4]))
    K = data.draw(st.integers(1, 4))
    elem = st.integers(0, field.q - 1)
    palette = data.draw(st.lists(st.tuples(*[elem] * K), min_size=1, max_size=K + 1))
    mats = []
    for n in data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)):
        scales = data.draw(st.lists(elem, min_size=n, max_size=n))
        cols = [tuple(field.mul(c, x) for x in data.draw(st.sampled_from(palette)))
                for c in scales]
        mats.append(columns_matrix(field, K, cols))
    assert_agrees_with_oracles(Udmg(field, K, data.draw(st.integers(0, 2)), tuple(mats)))


def perturbed(rng, u, count):
    mats = list(u.matrices)
    for _ in range(count):
        i = rng.randrange(len(mats))
        M = mats[i]
        entries = list(M.entries)
        entries[rng.randrange(len(entries))] = rng.randrange(u.field.q)
        mats[i] = FqMatrix(u.field, M.rows, M.cols, tuple(entries))
    return Udmg(u.field, u.K, u.g, tuple(mats))


def test_tail_agrees_on_perturbed_line_constructions():
    # random sets are mostly invalid and fail early; constructions pass, so
    # the tail must decide (and usually clear) whole subtrees
    from udmg.curves import INFINITY, genus0_udmg

    rng = random.Random(53)
    outcomes = set()
    for K in range(3, 7):
        for field in (F3, F4, F5):
            for _ in range(3):
                points = rng.sample(list(range(field.q)) + [INFINITY], rng.randint(2, 3))
                u = perturbed(rng, genus0_udmg(field, points, K).udmg, rng.randint(0, 2))
                for g in (0, 1):
                    assert_agrees_with_oracles(u.with_genus(g))
                    outcomes.add(verify(u.with_genus(g)).valid)
    assert outcomes == {True, False}


def perturbed_curve_constructions():
    """Genus-1 constructions over GF(11), GF(13) and GF(25) at K = 4, 5, 6, each with 0, 1
    and 2 entries changed, always drawn in the same order."""
    from udmg.curves import INFINITY, DivisorSpec, WeierstrassCurve, enumerate_points, goppa_udmg

    rng = random.Random(61)
    for q, a, b in ((11, 1, 3), (13, 1, 1), (25, 1, 1)):
        curve = WeierstrassCurve(field_from_order(q), a, b)
        affine = [P for P in enumerate_points(curve) if P is not INFINITY]
        for K in (4, 5, 6):
            points = rng.sample(affine, 6 if K < 6 else 5)
            base = goppa_udmg(curve, points, DivisorSpec(K)).udmg
            for count in (0, 1, 2):
                yield perturbed(rng, base, count)


def test_scan_matches_the_annihilator_oracle_on_perturbed_curve_constructions():
    # genus-1 constructions pass, so at K >= 4 most subtrees reach three rows and
    # are decided by tails that form their images from the walk's last elimination;
    # a few changed entries make them fail deep in the walk
    outcomes = set()
    for u in perturbed_curve_constructions():
        for g in (0, 1, 2):
            rep = verify(u.with_genus(g))
            assert rep == oracle_verify(u.with_genus(g))
            outcomes.add(rep.valid)
    assert outcomes == {True, False}


def test_chain_scan_with_empty_steps_matches_the_oracles():
    # zero subspaces and repeats are realized by zero columns, which the walk and the
    # tail's one pass over a member's columns read as dependent or zero images
    rng = random.Random(67)
    zero = Subspace.trivial(F3, 3)
    seen = set()
    for _ in range(150):
        chains = []
        for _ in range(rng.randint(1, 4)):
            vecs = [tuple(rng.randrange(3) for _ in range(3)) for _ in range(3)]
            subs = [zero] * rng.randint(0, 2)
            n = 0
            for _ in range(rng.randint(1, 4)):
                n = min(n + rng.randint(n == 0, 1), 3)  # the first subspace takes one vector
                subs.append(Subspace.from_vectors(F3, 3, vecs[:n]))
            chains.append(Chain(tuple(subs)))
        v = Udvsg(F3, 3, rng.randint(0, 2), tuple(chains))
        rep = verify_chains(v)
        assert rep == oracle_verify_chains(v)
        if not rep.vacuous:
            assert rep.witness == least_failure_by_rref(v)
        seen.add(rep.valid)
    assert seen == {True, False}


def test_tail_agrees_on_duplicated_families():
    # members repeated g + 1 times share every line; below genus g they fail
    from udmg.codes import duplicated
    from udmg.curves import INFINITY, genus0_udmg

    rng = random.Random(59)
    for field, g, count in ((F3, 1, 4), (F4, 1, 4), (F5, 1, 4), (F3, 2, 2)):
        points = rng.sample(list(range(field.q)) + [INFINITY], count)
        dup = duplicated(genus0_udmg(field, points, 2).udmg, g)
        for h in range(g + 1):
            assert_agrees_with_oracles(dup.with_genus(h))
        assert verify(dup).valid and not verify(dup.with_genus(g - 1)).valid
        assert_agrees_with_oracles(perturbed(rng, dup, 1))


E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


@pytest.mark.parametrize("K,g,members,witness", [
    # K = 2: the tail at the root decides; member 0 alone stays on the line <e1>
    (2, 1, (((1, 0), (2, 0), (3, 0)), ((0, 1), (1, 0))), (3, 0)),
    # K = 3: e1 leaves two functionals, so the tail starts at member 0's
    # second column; e2, 2e2 and e1 + e2 lie on one line mod e1
    (3, 1, ((E1, E2, (0, 2, 0), E3), ((1, 1, 0), E3), (E3,)), (3, 1, 0)),
    # members 1 and 2 on the line <(1, 1)>, member 0 on another
    (2, 0, (((1, 0), (0, 1)), ((1, 1), (0, 1)), ((2, 2), (1, 0))), (0, 1, 1)),
    # K = 1 has no lines: only leading zero images can fail
    (1, 1, (((0,), (0,), (1,)), ((0,), (2,))), (1, 1)),
])
def test_tail_pinned_least_failures(K, g, members, witness):
    u = Udmg(F5, K, g, tuple(columns_matrix(F5, K, cols) for cols in members))
    assert verify(u).witness == witness
    assert_agrees_with_oracles(u)


def test_tail_entered_partway_through_a_member(monkeypatch):
    reads = logged_reads(monkeypatch)
    members = ((E1, E2, (0, 2, 0), E3), ((1, 1, 0), E3), (E3,))
    u = Udmg(F5, 3, 1, tuple(columns_matrix(F5, 3, cols) for cols in members))
    assert verify(u).witness == (3, 1, 0)
    entries = [vec for cols in members for vec in cols]
    # the walk adds E1 (entry 0), reading it in all three rows, and leaves two
    assert reads[:3] == [0, 0, 0]
    # then one tail, at offset 1 of member 0 with budget 3, reads each entry in
    # both rows (two functionals), once, member by member
    tail = reads[3:]
    assert tail[::2] == tail[1::2] == list(range(1, 7))
    assert [[entries[c] for c in tail[::2] if lo <= c < hi] for lo, hi in ((0, 4), (4, 6), (6, 7))] \
        == [[E2, (0, 2, 0), E3], [(1, 1, 0), E3], [E3]]


def test_monotone_genus():
    rng = random.Random(11)
    for _ in range(60):
        field = rng.choice([F2, F3])
        K = rng.randint(1, 3)
        lengths = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        u = random_udmg(rng, field, K, lengths, 0)
        passing = [g for g in range(5) if verify(u.with_genus(g)).valid]
        if passing:
            first = passing[0]
            assert passing == list(range(first, 5))


def test_minimal_genus_cases(ref_udmg):
    assert minimal_genus(ref_udmg) == (1, False)
    assert minimal_genus(identity_udmg(F5, 3)) == (0, False)
    assert minimal_genus(identity_udmg(F2, 2, copies=2)) == (1, False)


def minimal_genus_by_messages(u):
    """Oracle from the message side, with no allowable vector and no elimination.

    The chosen columns miss F_q^K iff some y != 0 is orthogonal to all of them,
    that is iff lambda_i <= z_i(y) for every i, where z_i(y) counts the leading
    zeros of y^T M_i.  So genus g fails iff some y has sum z_i(y) >= K + g, and
    the least valid genus is max(0, max_y sum z_i(y) - K + 1), over one y a line.
    """
    dot, worst = u.field.dot, 0
    for y in product(range(u.field.q), repeat=u.K):
        if next((x for x in y if x), 0) != 1:
            continue  # y = 0, or not the line's representative leading with 1
        zeros = 0
        for M in u.matrices:
            j = 0
            while j < M.cols and not dot(y, M.col(j)):
                j += 1
            zeros += j
        worst = max(worst, zeros - u.K + 1)
    return worst


def test_minimal_genus_by_messages_pinned(ref_udmg):
    from udmg.cli import load_matrixset
    from udmg.curves import INFINITY, genus0_udmg

    gf25_line = genus0_udmg(field_from_order(25), [INFINITY, *range(25)], 4).udmg
    for u, want in ((load_matrixset(str(FIXTURES / "genus0_gf16.json")), 0),
                    (load_matrixset(str(FIXTURES / "genus1_gf3.json")), 1),
                    (ref_udmg, 1), (gf25_line, 0)):
        assert minimal_genus_by_messages(u) == want == minimal_genus(u)[0]


def test_minimal_genus_by_messages_on_perturbed_curve_constructions():
    # valid and invalid sets past verify_naive, kept to cells of at most 20,000 projective y
    pinned = set()
    for u in perturbed_curve_constructions():
        q, K = u.field.q, u.K
        if (q ** K - 1) // (q - 1) <= 20_000:
            assert minimal_genus_by_messages(u) == minimal_genus(u)[0]
            pinned.add((q, K))
    assert pinned == {(11, 4), (11, 5), (13, 4), (25, 4)}


@settings(deadline=None, max_examples=300)
@given(st.sampled_from([F2, F3, F4, F5, make_field(7)]), st.data())
def test_minimal_genus_matches_the_message_oracle(field, data):
    # empty members, members longer than K and zero columns included
    K = data.draw(st.integers(0, 4))
    entry = special_entries(field)
    mats = tuple(FqMatrix(field, K, n, tuple(data.draw(entry) for _ in range(K * n)))
                 for n in data.draw(st.lists(st.integers(0, K + 2), min_size=1, max_size=5)))
    u = Udmg(field, K, 0, mats)
    assert minimal_genus(u)[0] == minimal_genus_by_messages(u)


@contextmanager
def genera_scanned():
    """The genus of every scan made through core._verify_fast, the name the genus
    search calls for each genus (and the benchmark's tracer spans)."""
    genera, fast = [], core._verify_fast
    core._verify_fast = lambda u: genera.append(u.g) or fast(u)
    try:
        yield genera
    finally:
        core._verify_fast = fast


def test_minimal_genus_from_known_genera():
    rng = random.Random(5)
    for _ in range(60):
        field = rng.choice([F2, F3])
        K = rng.randint(1, 3)
        lengths = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        u = random_udmg(rng, field, K, lengths, 0)
        want = minimal_genus(u)
        least = want[0]
        for g in range(least, least + 3):
            with genera_scanned() as genera:
                assert minimal_genus(u, valid_at=g) == want
            assert genera == list(range(least + (least < g)))  # a known valid genus is not rescanned
        for g in range(least + 1):
            with genera_scanned() as genera:
                assert minimal_genus(u, start=g) == want
            assert genera == list(range(g, least + 1))


def test_least_genus_returns_the_failing_scan_below_it():
    rng = random.Random(8)
    for _ in range(60):
        field = rng.choice([F2, F3, F4])
        K = rng.randint(1, 4)
        lengths = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
        u = random_udmg(rng, field, K, lengths, 0)
        least = minimal_genus(u)[0]
        for start in range(least + 1):
            for valid_at in (None, least, least + 1):
                g, failed = _least_genus(u, valid_at, start)
                assert g == least
                assert (failed is None) == (g == start)
                assert failed is None or failed == verify(u.with_genus(g - 1))


def test_scans_leave_no_reference_cycle(ref_udmg):
    # walk's closure cell held walk itself, so every scan waited for the cyclic collector
    # (4,100 objects per 100 verify calls of this set)
    from udmg.codes import first_column_code

    v = realize(ref_udmg)
    calls = (lambda: verify(ref_udmg), lambda: verify(ref_udmg.with_genus(0)),
             lambda: verify_chains(v), lambda: minimal_genus(ref_udmg),
             lambda: first_column_code(ref_udmg))
    for call in calls:
        call()
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            for _ in range(100):
                call()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_nondegeneracy_predicate(ref_udmg):
    assert ref_udmg.is_nondegenerate
    assert not identity_udmg(F5, 1).is_nondegenerate  # K = 1
    long_matrix = Udmg(F2, 2, 0, (FqMatrix.from_rows(F2, [(1, 0, 1), (0, 1, 1)]),))
    assert not long_matrix.is_nondegenerate  # N_1 = 3 > K + g


@pytest.mark.parametrize("K, g", [(True, 1), (3.0, 1), (3, True), (3, 1.0), (3, False)])
def test_height_and_genus_are_ints_not_bools_or_floats(ref_udmg, K, g):
    # "g": True was written to a file verify could not read; K = 3.0 failed in verify
    with pytest.raises(TypeError):
        Udmg(F5, K, g, ref_udmg.matrices)
    assert Udmg(F5, 3, 1, ref_udmg.matrices) == ref_udmg
    assert Udmg(F5, 3, 0, ref_udmg.matrices) == ref_udmg.with_genus(0)


# -- truncation --------------------------------------------------------------------

def test_truncate_identity_and_empty(ref_udmg):
    same = truncate(ref_udmg, ref_udmg.lengths)
    assert same.matrices == ref_udmg.matrices
    empty = truncate(ref_udmg, (0,) * 9)
    assert empty.L == 0
    with pytest.raises(LengthMismatchError):
        truncate(ref_udmg, (1, 1))
    with pytest.raises(LengthMismatchError):
        truncate(ref_udmg, (4,) * 9)


def test_truncate_keeps_the_lengths_of_a_k0_set():
    u = Udmg(F5, 0, 0, (FqMatrix(F5, 0, 3, ()), FqMatrix(F5, 0, 2, ())))
    cut = truncate(u, (2, 1))
    assert cut.lengths == (2, 1)
    assert cut.matrices == (FqMatrix(F5, 0, 2, ()), FqMatrix(F5, 0, 1, ()))


def test_truncation_preserves_validity():
    # dropping columns only removes allowable vectors, so validity survives
    rng = random.Random(41)
    checked = 0
    while checked < 40:
        field = rng.choice([F2, F3, F5])
        K = rng.randint(1, 3)
        lengths = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        u = random_udmg(rng, field, K, lengths, 0)
        g_min, vac = minimal_genus(u)
        if vac:
            continue
        u = u.with_genus(g_min)
        cut = truncate(u, tuple(rng.randint(0, n) for n in lengths))
        assert verify(cut).valid
        checked += 1


def test_truncate_single_columns_matches_brute_force(ref_udmg):
    cut = truncate(ref_udmg, (1,) * 9)
    assert cut.lengths == (1,) * 9
    rep = verify(cut)
    # oracle: every allowable choice of 4 first columns must span
    from itertools import combinations
    from udmg.linalg import rank
    ok = all(
        rank(FqMatrix.from_rows(F5, [ref_udmg.matrices[i].col(0) for i in pick])) == 3
        for pick in combinations(range(9), 4))
    assert rep.valid == ok
    assert rep.valid  # truncation of a valid set stays valid


# -- realization, pruning, quotients -------------------------------------------------

def test_realize_and_prune_examples():
    M = FqMatrix.from_rows(F5, [(1, 1), (0, 0)])  # columns e1, e1
    c = realize(Udmg(F5, 2, 0, (M,))).chains[0]
    assert c.dims == (1, 1)
    assert prune(c, "irredundant").length == 1
    Mz = FqMatrix.from_rows(F5, [(0, 1), (0, 0)])  # zero column then e1
    cz = realize(Udmg(F5, 2, 0, (Mz,))).chains[0]
    assert cz.dims == (0, 1)
    assert prune(cz, "reduced").dims == (1,)


def test_realize_reference_chain(ref_udmg):
    v = realize(ref_udmg)
    assert v.chains[1].dims == (1, 2, 3)  # full flag for the second member
    assert all(c.is_closely_nested() for c in v.chains)
    assert verify_chains(v).valid


def test_chain_matrix_round_trip(ref_udmg):
    v = realize(ref_udmg)
    u2 = matrices_from_chains(v)
    v2 = realize(u2)
    assert all(c1.subspaces == c2.subspaces for c1, c2 in zip(v.chains, v2.chains))


def test_quotient_to_zero_height(ref_udmg):
    # covering truncation: B fills the ambient space, leaving height 0
    v = realize(ref_udmg)
    res = quotient(v, (2, 2, 0, 0, 0, 0, 0, 0, 0))
    assert res.B_dim == 3 and res.r == 0 and res.d == 0
    assert res.quotient.K == 0 and res.quotient.g == 1
    assert verify_chains(res.quotient).valid
    u0 = matrices_from_chains(res.quotient)
    assert u0.K == 0 and u0.lengths == (1, 1, 3, 3, 3, 3, 3, 3, 3)


def test_quotient_zero_truncation(ref_udmg):
    v = realize(ref_udmg)
    res = quotient(v, (0,) * 9)
    assert (res.d, res.r, res.B_dim) == (0, 3, 0)
    assert res.quotient.K == 3 and res.quotient.g == 1
    assert all(c1.subspaces == c2.subspaces
               for c1, c2 in zip(res.quotient.chains, v.chains))


def test_quotient_reference_head(ref_udmg):
    v = realize(ref_udmg)
    res = quotient(v, (1,) + (0,) * 8)
    assert (res.d, res.r, res.B_dim) == (0, 2, 1)
    assert res.quotient.K == 2 and res.quotient.g == 1
    assert res.quotient.lengths == (2,) + (3,) * 8
    assert verify_chains(res.quotient).valid


def test_quotient_rejections(ref_udmg):
    v = realize(ref_udmg)
    with pytest.raises(NotProperSubError):
        quotient(v, (3,) + (0,) * 8)  # not entrywise smaller
    for head in (True, 1.0):  # True was read as 1, where Udmg and FqMatrix refuse bools
        with pytest.raises(TypeError):
            quotient(v, (head,) + (0,) * 8)
    # unchecked, an invalid collection's defect can pass its genus (d = 2 > g = 0 here):
    # the quotient's negative genus is refused, as Udvsg refuses it
    line = FqMatrix.from_rows(F3, [(1, 1), (0, 0), (0, 0)])
    with pytest.raises(ValueError, match="genus must be non-negative"):
        quotient(realize(Udmg(F3, 3, 0, (line,) * 3)), (1, 1, 1), check=False)
    bad = realize(ref_udmg.with_genus(0))
    with pytest.raises(InvalidInputError):
        quotient(bad, (0,) * 9)


def test_quotient_law_sampled():
    rng = random.Random(23)
    done = 0
    while done < 30:
        field = rng.choice([F2, F3, F5])
        K = rng.randint(2, 4)
        L = rng.randint(1, 3)
        lengths = [rng.randint(2, 4) for _ in range(L)]
        u = random_udmg(rng, field, K, lengths, 0)
        g_min, vac = minimal_genus(u)
        if vac or g_min > 3:
            continue
        v = realize(u.with_genus(g_min))
        trunc = tuple(rng.randrange(n) for n in lengths)
        res = quotient(v, trunc)
        assert 0 <= res.d <= min(K - res.r, g_min)
        assert res.B_dim == (K - res.r) - res.d
        assert res.quotient.K == res.d + res.r
        assert res.quotient.g == g_min - res.d
        assert res.quotient.lengths == tuple(n - t for n, t in zip(lengths, trunc))
        assert all(c.is_closely_nested() for c in res.quotient.chains)
        assert verify_chains(res.quotient).valid
        done += 1


def quotient_by_images(v, truncation):
    """Oracle: the quotient in the subspace picture, unchecked.  B is the sum of the heads,
    and every chain subspace past its head is mapped through Q, one elimination each."""
    heads = [chain.subspaces[n - 1] for chain, n in zip(v.chains, truncation) if n > 0]
    B = subspace_sum(heads) if heads else Subspace.trivial(v.field, v.K)
    r = max(v.K - sum(truncation), 0)
    d = (v.K - r) - B.dim
    Q = quotient_map(B)
    image = lambda V: Subspace.from_vectors(v.field, Q.rows, [Q.matvec(x) for x in V.vectors])
    chains = tuple(Chain(tuple(image(V) for V in chain.subspaces[n:]))
                   for chain, n in zip(v.chains, truncation))
    return QuotientResult(Udvsg(v.field, d + r, v.g - d, chains), d, r, B.dim)


def assert_quotients_agree(got, want):
    assert (got.d, got.r, got.B_dim) == (want.d, want.r, want.B_dim)
    assert got.quotient == want.quotient  # canonical subspaces: the chains are equal
    u, u_want = matrices_from_chains(got.quotient), matrices_from_chains(want.quotient)
    assert u == u_want
    if u.K:  # a height-0 set with columns has no file form
        assert matrixset_to_text(u) == matrixset_to_text(u_want)


def test_quotient_matches_the_chain_image_oracle():
    # valid, non-vacuous sets at their least genus or one above, with random truncations,
    # covering ones (height 0) and ones with dependent heads (d >= 1) among them
    rng = random.Random(37)
    done = covering = defect = 0
    while done < 240:
        field = rng.choice([F2, F3, F5, F4])
        K = rng.randint(1, 4)
        lengths = [rng.randint(1, K + 2) for _ in range(rng.randint(1, 4))]
        u = random_udmg(rng, field, K, lengths, 0)
        g_min, vac = minimal_genus(u)
        g = g_min + rng.randint(0, 1)
        if vac or K + g > sum(lengths):
            continue
        v = realize(u.with_genus(g))
        for trunc in (tuple(rng.randrange(n) for n in lengths), tuple(n - 1 for n in lengths)):
            res = quotient(v, trunc)
            assert_quotients_agree(res, quotient_by_images(v, trunc))
            assert minimal_genus_by_messages(matrices_from_chains(res.quotient)) <= g - res.d
            covering += res.quotient.K == 0
            defect += res.d >= 1
        done += 1
    assert covering >= 20 and defect >= 20


def test_unchecked_quotient_matches_the_oracle_on_invalid_sets():
    # check=False skips both verifications: an invalid set's quotient agrees with the
    # oracle's, and a defect past the genus is refused by both, as a negative genus
    rng = random.Random(43)
    done = refused = 0
    while done < 120:
        field = rng.choice([F2, F3, F4])
        K = rng.randint(2, 4)
        lengths = [rng.randint(1, K + 1) for _ in range(rng.randint(1, 4))]
        u = random_udmg(rng, field, K, lengths, rng.randint(0, 1))
        if verify(u).valid:
            continue
        v = realize(u)
        trunc = tuple(rng.randrange(n) for n in lengths)
        try:
            want = quotient_by_images(v, trunc)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                quotient(v, trunc, check=False)
            refused += 1
        else:
            assert_quotients_agree(quotient(v, trunc, check=False), want)
        done += 1
    assert refused >= 10


def test_realize_refuses_a_member_with_no_columns():
    # valid sets whose member 1 has no columns: its chain would hold no subspace, and the
    # refusal spoke of chains the input never states
    F8 = field_from_order(8)
    for u in (Udmg(F2, 1, 0, (FqMatrix.identity(F2, 1), FqMatrix(F2, 1, 0, ()))),
              Udmg(F8, 1, 1, tuple(FqMatrix(F8, 1, n, (x,) * n)
                                   for n, x in ((1, 0), (0, 0), (1, 5))))):
        assert verify(u).valid
        with pytest.raises(HypothesisUnmetError, match="^matrix 1 has no columns, so no chain$"):
            realize(u)


def test_vacuous_quotient_past_its_genus_is_refused():
    # total length 3 < K + g = 4 allows no vector, so the set verifies vacuously; the head
    # column is zero, so d = 1 passes g = 0, outside the range the law guarantees
    M = FqMatrix.from_rows(F2, [(0, 1, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)])
    v = realize(Udmg(F2, 4, 0, (M,)))
    assert verify_chains(v).vacuous
    with pytest.raises(InvalidInputError, match="vacuous"):
        quotient(v, (1,))
    # with d <= g a vacuous set still has its quotient, vacuous as well
    res = quotient(with_genus(v, 1), (1,))
    assert (res.d, res.r, res.quotient.K, res.quotient.g) == (1, 3, 4, 0)
    assert verify_chains(res.quotient).vacuous


def with_genus(v, g):
    return Udvsg(v.field, v.K, g, v.chains)


def test_verify_chains_of_quotients_matches_naive():
    # quotient chains hold subspaces of several dimensions, with repeats, which
    # chain_matrix realizes one new vector or one zero column at a time
    rng = random.Random(41)
    done = multi = 0
    while done < 25:
        field = rng.choice([F3, F5])
        K = rng.randint(2, 4)
        lengths = [rng.randint(2, 4) for _ in range(rng.randint(2, 3))]
        u = random_udmg(rng, field, K, lengths, 0)
        g_min, vac = minimal_genus(u)
        if vac or g_min > 2:
            continue
        res = quotient(realize(u.with_genus(g_min)), tuple(rng.randrange(n) for n in lengths))
        if res.quotient.K < 2:
            continue
        for g in range(res.quotient.g + 1):
            v = with_genus(res.quotient, g)
            multi += any(V.dim > 1 for c in v.chains for V in c.subspaces)
            rep, naive = verify_chains(v), verify_naive(matrices_from_chains(v))
            assert (rep.valid, rep.witness, rep.vacuous) == (naive.valid, naive.witness, naive.vacuous)
            assert rep.checked == sum(1 for _ in allowable_vectors(v.lengths, v.K, v.g))
        done += 1
    assert multi > 20


def least_failure_by_rref(v):
    """Oracle: the first allowable vector whose chosen chain entries miss F_q^K."""
    for lam in allowable_vectors(v.lengths, v.K, v.g):
        rows = [list(x) for c, k in zip(v.chains, lam) for V in c.subspaces[:k] for x in V.vectors]
        if rref_rows(v.field, rows)[0] < v.K:
            return lam
    return None


def test_udvsg_refuses_chains_no_matrix_realizes(ref_udmg):
    # a matrix's prefix spans start at dimension <= 1, grow by at most one and nest, in
    # F_q^K over its field; any other chain, and K and g as Udmg refuses them, raise here,
    # before verify_chains, matrices_from_chains or quotient sees them
    span = lambda field, K, *vecs: Subspace.from_vectors(field, K, list(vecs))
    e1, e2, e3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    zero2, full2 = Subspace.trivial(F5, 2), Subspace.full(F5, 2)
    good = Chain((span(F3, 3, e1), span(F3, 3, e1, e2)))
    refused = [
        (F5, 2, 1, (Chain((zero2, zero2, full2)), Chain((zero2, full2)))),  # a jump of two
        (F3, 3, 0, (good, Chain((span(F3, 3, e1, e2), span(F3, 3, e1, e2, e3))))),  # first dim 2
        (F3, 3, 0, (good, Chain((span(F3, 3, e1), span(F3, 3, e2, e3))))),  # not nested
        (F3, 2, 0, (good,)),  # ambient dimension 3 in a collection of height 2
        (F3, 3, 0, (good, Chain((span(F3, 2, (1, 0)),)))),  # chains of two ambient dimensions
        (F5, 3, 0, (good,)),  # a chain over another field
    ]
    for field, K, g, chains in refused:
        with pytest.raises(InvalidInputError):
            Udvsg(field, K, g, chains)
    for K, g, error in ((3, -1, ValueError), (-1, 0, ValueError), (3, True, TypeError),
                        (3.0, 0, TypeError)):
        with pytest.raises(error):
            Udvsg(F3, K, g, (good,))
        with pytest.raises(error):
            Udmg(F3, K, g, ())
    v = realize(ref_udmg)
    assert Udvsg(v.field, v.K, v.g, v.chains) == v
    assert verify_chains(Udvsg(F3, 3, 0, (good, good))) == VerifyReport(False, (1, 2), 2)
