import math
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from udmg import reference
from udmg.core import (
    Udmg,
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
from udmg.errors import InvalidInputError, LengthMismatchError, NotProperSubError
from udmg.fields import make_field
from udmg.linalg import FqMatrix

F2, F3, F5 = make_field(2), make_field(3), make_field(5)


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


def assert_agrees_with_oracles(u):
    rep = verify(u)
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


def test_oracle_equivalence_exhaustive_gf2():
    # every GF(2) set with K = 2, at most two members of at most two columns
    seen = 0
    for L in (1, 2):
        for lengths in product((1, 2), repeat=L):
            for entries in product((0, 1), repeat=2 * sum(lengths)):
                mats, at = [], 0
                for n in lengths:
                    mats.append(FqMatrix(F2, 2, n, entries[at:at + 2 * n]))
                    at += 2 * n
                for g in (0, 1):
                    assert_agrees_with_oracles(Udmg(F2, 2, g, tuple(mats)))
                    seen += 1
    assert seen == 840


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


def test_nondegeneracy_predicate(ref_udmg):
    assert ref_udmg.is_nondegenerate
    assert not identity_udmg(F5, 1).is_nondegenerate  # K = 1
    long_matrix = Udmg(F2, 2, 0, (FqMatrix.from_rows(F2, [(1, 0, 1), (0, 1, 1)]),))
    assert not long_matrix.is_nondegenerate  # N_1 = 3 > K + g


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
