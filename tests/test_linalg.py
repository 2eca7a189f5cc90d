from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from bvcalc.linalg import ExactMatrix, kernel, pivot_leads

from oracles import _kernel, bareiss_rank, fraction_rank


def sparse(rows):
    return [{col: x for col, x in enumerate(row) if x} for row in rows]


def random_rows(rng, nrows, ncols):
    """Random rational rows with a share of zeros, zero rows and repeats."""
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1:
            rows.append([Fraction(0)] * ncols)
        elif kind < 0.3 and rows:
            # a rational combination of earlier rows: rank-deficient on purpose
            row = [Fraction(0)] * ncols
            for other in rng.sample(rows, min(2, len(rows))):
                factor = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                row = [a + factor * b for a, b in zip(row, other)]
            rows.append(row)
        else:
            rows.append([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                         if rng.random() < 0.5 else Fraction(0) for _ in range(ncols)])
    return rows


def block_diagonal(blocks):
    width = sum(len(b[0]) for b in blocks)
    rows, offset = [], 0
    for block in blocks:
        for row in block:
            rows.append([Fraction(0)] * offset + list(row)
                        + [Fraction(0)] * (width - offset - len(row)))
        offset += len(block[0])
    return rows


class TestRank:
    def test_bareiss_matches_fraction_elimination(self, rng):
        for _ in range(60):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                     for _ in range(nc)] for _ in range(nr)]
            assert bareiss_rank(rows) == fraction_rank(rows)

    def test_empty_and_zero(self):
        assert len(pivot_leads([])) == 0
        assert len(pivot_leads([{}, {0: 0, 3: Fraction(0)}])) == 0
        assert ExactMatrix([], 3).rank() == 0
        assert ExactMatrix([[Fraction(0), Fraction(0)]]).rank() == 0
        assert bareiss_rank([]) == 0
        assert bareiss_rank([[Fraction(0), Fraction(0)]]) == 0

    def test_sparse_matches_oracles(self, rng):
        for _ in range(200):
            rows = random_rows(rng, rng.randint(1, 9), rng.randint(1, 9))
            expected = bareiss_rank(rows)
            assert fraction_rank(rows) == expected
            assert len(pivot_leads(sparse(rows))) == expected
            assert ExactMatrix(rows).rank() == expected

    def test_block_diagonal(self, rng):
        for _ in range(40):
            blocks = [random_rows(rng, rng.randint(1, 4), rng.randint(1, 4))
                      for _ in range(rng.randint(2, 4))]
            rows = block_diagonal(blocks)
            rng.shuffle(rows)
            expected = sum(bareiss_rank(block) for block in blocks)
            assert bareiss_rank(rows) == expected
            assert len(pivot_leads(sparse(rows))) == expected

    def test_keys_need_only_be_hashable(self):
        # monomial keys and keys of mixed types; the third vector is the
        # sum of the first two
        vectors = [{((1, 0), 3): Fraction(1, 2), "c1": 2},
                   {"c1": Fraction(-1, 3), 7: 1},
                   {((1, 0), 3): Fraction(1, 2), "c1": Fraction(5, 3), 7: 1}]
        assert len(pivot_leads(vectors)) == 2
        assert len(pivot_leads(vectors + [{7: 1}])) == 3

    def test_integer_and_fraction_entries_agree(self):
        assert len(pivot_leads([{0: 2, 1: 4}, {0: Fraction(1, 3), 1: Fraction(2, 3)}])) == 1
        assert len(pivot_leads([{0: 10**30, 1: 1}, {0: 1, 1: Fraction(1, 10**30)}])) == 1

    def test_non_leads_span_a_complement(self, rng):
        # the unit vectors of the columns that are not leads, added to the
        # vectors, give full rank: they span a complement of the span; and
        # on tuple column keys and Fraction entries, the kernel has one
        # vector per such column, orthogonal to every row
        for _ in range(200):
            ncols = rng.randint(1, 9)
            rows = random_rows(rng, rng.randint(1, 9), ncols)
            leads = pivot_leads(sparse(rows))
            assert len(leads) == len(set(leads)) == bareiss_rank(rows)
            units = [[Fraction(int(c == k)) for c in range(ncols)]
                     for k in range(ncols) if k not in leads]
            assert bareiss_rank(rows + units) == ncols
            keyed = [{(c, "c"): x for c, x in row.items()} for row in sparse(rows)]
            vectors = kernel(keyed, [(c, "c") for c in range(ncols)])
            assert [c for (c, _), _ in vectors] == [k for k in range(ncols) if k not in leads]
            for _, vec in vectors:
                assert all(sum(x * vec.get(k, 0) for k, x in row.items()) == 0
                           for row in keyed)


@st.composite
def shifted_squares(draw):
    """(B, lambda) for an integer lambda and a square integer B whose B - lambda
    has zero columns, repeated rows and entries up to 10^30."""
    n = draw(st.integers(1, 7))
    entry = st.one_of(st.integers(-3, 3), st.sampled_from([0, 10**30, -10**30]))
    shifted = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=2)):
        shifted[j] = list(shifted[i])
    for c in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        for row in shifted:
            row[c] = 0
    value = draw(st.one_of(st.integers(-3, 3), st.sampled_from([10**30, -10**30])))
    return [[x + value * (i == j) for j, x in enumerate(row)]
            for i, row in enumerate(shifted)], value


@settings(max_examples=200, deadline=None)
@given(shifted_squares())
def test_kernel_spans_the_oracle_eigenspace(square):
    # one primitive vector per free column, each orthogonal to every row of
    # B - lambda, nonzero at its own free column and zero at the others,
    # together spanning the Gauss-Jordan oracle's kernel
    b, value = square
    n = len(b)
    shifted = [[x - value * (i == j) for j, x in enumerate(row)] for i, row in enumerate(b)]
    vectors = kernel(sparse(shifted), range(n))
    assert len(vectors) == n - bareiss_rank(shifted)
    free = [c for c, _ in vectors]
    for c, vec in vectors:
        assert gcd(*vec.values()) == 1
        assert all(sum(x * vec.get(k, 0) for k, x in enumerate(row)) == 0 for row in shifted)
        assert vec[c] and not any(vec.get(f) for f in free if f != c)
    ours = [[vec.get(k, 0) for k in range(n)] for _, vec in vectors]
    oracle = [vec for _, vec in _kernel(b, value)]
    assert bareiss_rank(ours + oracle) == bareiss_rank(ours) == bareiss_rank(oracle)


class TestExactMatrix:
    def test_column_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="columns"):
            ExactMatrix([[1, 2]], 3)

    def test_column_count_checked_and_inferred(self):
        assert ExactMatrix([[1, 2]], 2).ncols == 2
        assert ExactMatrix([[1, 2]]).ncols == 2
        assert ExactMatrix([], 4).ncols == 4
        assert ExactMatrix([]).ncols == 0

    def test_ragged_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            ExactMatrix([[1, 2], [3]])
