import json
import math
import random
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from udmg.cli import run
from udmg.codes import (
    LinearCode,
    bounds,
    duplicated,
    first_column_code,
    min_distance,
    partition_bound,
)
from udmg.core import Udmg, verify
from udmg.curves import INFINITY, genus0_udmg
from udmg.errors import HypothesisUnmetError, TooShortError
from udmg.fields import field_from_order, make_field
from udmg.linalg import FqMatrix, rank

F2, F3, F5 = make_field(2), make_field(3), make_field(5)
FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "genus1_f5.json"


def min_distance_by_vecmat(code):
    """Oracle: multiply every nonzero message through the generator."""
    q = code.field.q
    G = code.generator
    best = code.n + 1
    for msg in product(range(q), repeat=code.k):
        if not any(msg):
            continue
        word = G.vecmat(msg)
        w = sum(1 for e in word if e)
        if w < best:
            best = w
            if best == 1:
                break
    return best


def random_code(rng, q, n, k):
    f = field_from_order(q)
    rows = [[rng.randrange(q) if rng.random() < 0.7 else 0 for _ in range(n)]
            for _ in range(k)]
    return LinearCode(f, n, k, FqMatrix.from_rows(f, rows))


def test_reference_code(ref_udmg):
    code = first_column_code(ref_udmg)
    assert (code.n, code.k) == (9, 3)
    assert 6 <= code.d <= 7  # designed distance 9 - deg D = 6, Singleton caps 7
    assert code.defect <= 1
    # observed values: weight-6 words exist (functions vanishing at three
    # points summing to O in the group law), so the designed distance is exact
    assert code.d == 6 and code.defect == 1


def test_genus0_code_is_mds():
    gc = genus0_udmg(F5, [0, 1, 2, 3, 4, INFINITY], 3)
    code = first_column_code(gc.udmg)
    assert (code.n, code.k, code.d) == (6, 3, 4)
    assert code.defect == 0


def test_too_short():
    eye = FqMatrix.identity(F2, 2)
    with pytest.raises(TooShortError):
        first_column_code(Udmg(F2, 2, 0, (eye,)))


def test_min_distance_basics():
    rep = LinearCode(F5, 4, 1, FqMatrix.from_rows(F5, [(1, 1, 1, 1)]))
    assert min_distance(rep) == 4
    eye = LinearCode(F2, 2, 2, FqMatrix.identity(F2, 2))
    assert min_distance(eye) == 1


def test_singleton_and_length_cap_on_computed_codes(ref_udmg):
    codes = [first_column_code(ref_udmg),
             first_column_code(genus0_udmg(F5, [0, 1, 2, 3, 4, INFINITY], 3).udmg),
             first_column_code(genus0_udmg(F3, [0, 1, 2, INFINITY], 2).udmg)]
    for code in codes:
        assert code.d <= code.n - code.k + 1
        s = code.defect
        assert code.n <= code.k - 2 + (code.field.q + 1) * (s + 1)


def test_duplication_sharpness_spot():
    base = genus0_udmg(F3, [0, 1, 2, INFINITY], 2).udmg
    for g in (0, 1, 2):
        dup = duplicated(base, g)
        assert dup.L == (g + 1) * (3 + 1)
        assert dup.g == g
        assert verify(dup).valid
        assert dup.L == bounds(2, 3, g, lengths=(2,) * dup.L).class1_bound


def test_bounds_worked_example():
    rep = bounds(4, 2, 2, lengths=(4, 4, 4))
    assert rep.code_class == 1
    assert rep.class1_bound == 9
    assert rep.partition_bound == 8
    # the scan's pivotal comparisons
    rhs = math.comb(5, 3) * (2 ** 4 - 1) // (2 - 1)
    assert rhs == 150
    assert math.comb(10, 3) == 120 <= 150 < math.comb(11, 3) == 165


def test_bounds_mds_specialization():
    for K in (2, 3, 5):
        for q in (2, 3, 5):
            assert bounds(K, q, 0).defect_bound == K + q - 1


def test_bounds_class2():
    rep = bounds(8, 2, 0, lengths=(2, 2))
    assert rep.code_class == 2
    assert rep.class2_range == (3, 6)  # g+3 = 3, (K-2)/(gamma-1) = 6


def test_bounds_hypotheses():
    with pytest.raises(HypothesisUnmetError):
        bounds(1, 2, 0)
    rep = bounds(4, 2, 2, lengths=(2, 2))
    assert rep.partition_bound == 0  # needs N_i >= K - 1 = 3
    assert any("K - 1" in n for n in rep.notes)
    rep2 = bounds(3, 2, 1)
    assert rep2.code_class == 0 and rep2.notes


def test_bounds_asmds():
    rep = bounds(3, 5, 1, nks=(9, 3, 1))
    assert rep.asmds_bound == 3 - 2 + 6 * 2
    assert rep.asmds_holds


def test_partition_bound_monotone():
    assert partition_bound(4, 2, 2) == 8
    assert partition_bound(2, 5, 0) >= 1


def test_defect_bound_respected_by_fixtures(ref_udmg):
    rep = bounds(ref_udmg.K, 5, ref_udmg.g, lengths=ref_udmg.lengths)
    assert ref_udmg.L <= rep.defect_bound
    assert ref_udmg.L <= rep.class1_bound


@given(st.sampled_from([2, 3, 4, 5, 7, 9]), st.integers(1, 7), st.data())
@settings(max_examples=150, deadline=None)
def test_min_distance_matches_vecmat_scan(q, n, data):
    k = data.draw(st.integers(1, n))
    if q ** k > 4096:
        k = max(j for j in range(1, k + 1) if q ** j <= 4096)
    code = random_code(random.Random(data.draw(st.integers(0, 2 ** 32))), q, n, k)
    if rank(code.generator) == k:
        assert min_distance(code) == min_distance_by_vecmat(code)


def test_min_distance_extreme_dimensions():
    rng = random.Random(5)
    for q in (2, 3, 4, 5, 9):
        for n in range(1, 6):
            for k in {1, n}:
                if q ** k > 4096:
                    continue
                for _ in range(6):
                    code = random_code(rng, q, n, k)
                    if rank(code.generator) == k:
                        assert min_distance(code) == min_distance_by_vecmat(code), (q, n, k)
    f9 = make_field(3, 2)
    assert min_distance(LinearCode(f9, 3, 3, FqMatrix.identity(f9, 3))) == 1
    assert min_distance(LinearCode(f9, 4, 1, FqMatrix.from_rows(f9, [(5, 1, 8, 3)]))) == 4


def test_min_distance_rank_deficient_reads_zero():
    rng = random.Random(6)
    seen = 0
    for q in (2, 3, 4, 9):
        for _ in range(40):
            n, k = rng.randint(1, 5), rng.randint(2, 3)
            code = random_code(rng, q, n, k)
            rows = [list(code.generator.row(i)) for i in range(k)]
            c = rng.randrange(q)
            rows[-1] = [code.field.mul(c, a) for a in rows[0]]
            code = LinearCode(code.field, n, k, FqMatrix.from_rows(code.field, rows))
            assert min_distance(code) == 0
            # The oracle stops at its first weight-1 word, which may come before
            # its first zero word; otherwise it reads 0 as well.
            if min_distance_by_vecmat(code) == 0:
                seen += 1
            else:
                assert min_distance_by_vecmat(code) == 1
    assert seen > 100
    dup = LinearCode(F2, 2, 2, FqMatrix.from_rows(F2, [(1, 0), (1, 0)]))
    assert min_distance(dup) == 0 and min_distance_by_vecmat(dup) == 1


def test_code_command_pins_distance(capsys):
    assert run(["code", str(FIXTURE), "--min-distance"]) == 0
    assert capsys.readouterr().out.endswith("d: 6\ndefect: 1\n")
    assert run(["--json", "code", str(FIXTURE), "--min-distance"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["n"], payload["k"], payload["d"], payload["defect"]) == (9, 3, 6, 1)
