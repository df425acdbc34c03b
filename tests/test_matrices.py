from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rrdigraph.matrices import (
    BiregularBitMatrix,
    CodegreeRecord,
    InvalidMatrixError,
    VertexSetPair,
    codegree,
    codegree_extremes,
    complement,
    edge_count,
    format_matrices,
    format_matrix,
    parse_matrices,
    parse_matrix,
    rows_to_words,
    words_to_dense,
)
from rrdigraph.samplers import SamplerSpec, circulant, draw, sample_many
from conftest import (
    MALFORMED_TEXT,
    all_set_pairs,
    gram_codegrees,
    matrix_from_strings,
    naive_codegree,
    naive_column_classes,
    naive_edge_count,
    oracle_format_matrix,
    oracle_parse_matrices,
)

PARALLEL_ROWS = matrix_from_strings(["1100", "1100", "0011", "0011"])
DISJOINT_ROWS = matrix_from_strings(["1100", "0011", "1010", "0101"])


class TestCodegree:
    def test_identical_rows_give_co_d(self):
        rec = codegree(PARALLEL_ROWS, 0, 1)
        assert rec.co == 2 and rec.ex == 0

    def test_disjoint_supports_give_co_zero(self):
        rec = codegree(DISJOINT_ROWS, 0, 1)
        assert rec.co == 0 and rec.ex == 2

    def test_in_direction_matches_transpose(self, pool_8_3):
        # The in-codegree of two columns, counted off the definition, is the
        # out-codegree of the transpose.
        for mat in pool_8_3[:10]:
            t = mat.transpose()
            for j1, j2 in ((0, 1), (2, 5)):
                both = sum(mat.entry(i, j1) and mat.entry(i, j2) for i in range(mat.m))
                assert codegree(t, j1, j2).co == both

    @pytest.mark.parametrize("m, n, d", [(130, 130, 40), (100, 150, 30), (6, 9, 3)])
    def test_transpose_equals_dense_transpose(self, m, n, d):
        spec = SamplerSpec(kind="switch_mcmc", n=n, d=d, m=m, dp=m * d // n, steps=5 * n, seed=m + n)
        mat = sample_many(spec, 1)[0]
        t = mat.transpose()
        assert (t.m, t.n, t.d, t.dp) == (n, m, mat.dp, d)
        assert (t.dense() == mat.dense().T).all()
        t.validate()

    def test_errors(self):
        with pytest.raises(ValueError):
            codegree(PARALLEL_ROWS, 1, 1)
        with pytest.raises(IndexError):
            codegree(PARALLEL_ROWS, 0, 9)

    def test_column_census_identities_exhaustive(self, class_4_2):
        # ex = d - co, zero-zero count = n - 2d + co, and the census adds
        # up to n, on every matrix of the enumerated class.
        for mat in class_4_2:
            for i1 in range(4):
                for i2 in range(4):
                    if i1 == i2:
                        continue
                    census = naive_column_classes(mat, i1, i2)
                    rec = codegree(mat, i1, i2)
                    assert rec.co == census["11"]
                    assert rec.ex == census["10"] == census["01"] == mat.d - rec.co
                    assert census["00"] == 4 - 2 * 2 + rec.co
                    assert rec.co + census["00"] + 2 * rec.ex == 4

    def test_ex_bounded_by_d_hat(self, pool_8_3):
        for mat in pool_8_3:
            for i1 in range(mat.m):
                for i2 in range(i1 + 1, mat.m):
                    assert codegree(mat, i1, i2).ex <= mat.d_hat


class TestEdgeCount:
    def test_full_sets(self):
        pair = VertexSetPair.of(range(4), range(4))
        assert edge_count(PARALLEL_ROWS, pair) == 2 * 4

    def test_empty_sets(self):
        assert edge_count(PARALLEL_ROWS, VertexSetPair.of([], [0, 1])) == 0
        assert edge_count(PARALLEL_ROWS, VertexSetPair.of([0], [])) == 0

    def test_block_example_and_complement_identity(self):
        pair = VertexSetPair.of([0, 1], [0, 1])
        e = edge_count(PARALLEL_ROWS, pair)
        assert e == 4 == naive_edge_count(PARALLEL_ROWS, [0, 1], [0, 1])
        comp = pair.complement(PARALLEL_ROWS)
        assert edge_count(PARALLEL_ROWS, comp) == 2 * (4 - 2 - 2) + e

    def test_regularity_identities_sampled(self, pool_8_3):
        mat = pool_8_3[0]
        n, d = mat.n, mat.d
        for rows, cols in all_set_pairs(4, 4):  # subsets of the first 4 indices
            pair = VertexSetPair.of(rows, cols)
            a, b = len(rows), len(cols)
            e = edge_count(mat, pair)
            rows_c = tuple(set(range(n)) - set(rows))
            cols_c = tuple(set(range(n)) - set(cols))
            assert edge_count(mat, VertexSetPair.of(rows_c, cols)) == d * b - e
            assert edge_count(mat, VertexSetPair.of(rows, cols_c)) == d * a - e
            assert (
                edge_count(mat, VertexSetPair.of(rows_c, cols_c))
                == d * (n - a - b) + e
            )

    def test_centered_count_matches_on_complements_exactly(self, class_4_2):
        # n*e(A,B) - d*a*b == n*e(A^c,B^c) - d*(n-a)*(n-b), exact integers.
        pairs = [p for p in all_set_pairs(4, 4)]
        for mat in class_4_2[::9]:
            for rows, cols in pairs:
                pair = VertexSetPair.of(rows, cols)
                comp = pair.complement(mat)
                lhs = 4 * edge_count(mat, pair) - 2 * len(rows) * len(cols)
                rhs = 4 * edge_count(mat, comp) - 2 * (4 - len(rows)) * (4 - len(cols))
                assert lhs == rhs


class TestDiscrepancy:
    """disc(A, B) = |e(A, B) - mu(A, B)|, normalised by mu_hat(A, B)."""

    def test_complete_digraph_has_zero_discrepancy(self):
        full = matrix_from_strings(["111", "111", "111"])
        pair = VertexSetPair.of([0, 2], [1])
        assert edge_count(full, pair) == pair.mu(full) and pair.mu_hat(full) > 0

    def test_full_row_set_has_zero_discrepancy(self, pool_8_3):
        mat = pool_8_3[0]
        pair = VertexSetPair.of(range(8), [1, 4, 6])
        assert edge_count(mat, pair) == pair.mu(mat)

    def test_block_example(self):
        pair = VertexSetPair.of([0, 1], [0, 1])
        disc = abs(edge_count(PARALLEL_ROWS, pair) - pair.mu(PARALLEL_ROWS))
        assert disc == 2  # e = 4, mu = 2
        assert disc / pair.mu_hat(PARALLEL_ROWS) == 1

    def test_degenerate_scale_reported(self):
        # d = 0: mu_hat vanishes, so there is no normalised discrepancy.
        zero = matrix_from_strings(["00", "00"])
        assert VertexSetPair.of([0], [1]).mu_hat(zero) == 0

    def test_mu_hat_symmetry(self, class_4_2):
        mat = class_4_2[0]
        for rows, cols in all_set_pairs(4, 4):
            pair = VertexSetPair.of(rows, cols)
            comp = pair.complement(mat)
            assert pair.mu_hat(mat) == comp.mu_hat(mat)


class TestComplement:
    def test_zero_matrix_complements_to_ones(self):
        zero = matrix_from_strings(["000", "000", "000"])
        comp = complement(zero)
        assert comp.d == 3 and comp.rows == (7, 7, 7)

    def test_involution_and_codegree_shift(self, pool_8_3):
        for mat in pool_8_3[:20]:
            comp = complement(mat)
            comp.validate()
            assert complement(comp) == mat
            for i1, i2 in ((0, 1), (3, 7)):
                rec = codegree(mat, i1, i2)
                rec_c = codegree(comp, i1, i2)
                assert rec_c.co == mat.n - 2 * mat.d + rec.co
                assert rec_c.ex == rec.ex  # the step that proves ex <= d_hat


class TestConstruction:
    def test_row_sum_violation_names_row(self):
        with pytest.raises(InvalidMatrixError, match="row 1"):
            BiregularBitMatrix([0b011, 0b001, 0b110], 3)

    def test_column_sum_violation_names_column(self):
        # Columns sum to (2, 3, 1); column 1 is the first offender.
        with pytest.raises(InvalidMatrixError, match="column 1"):
            BiregularBitMatrix([0b011, 0b011, 0b110], 3)

    def test_edge_count_divisibility_guard(self):
        with pytest.raises(InvalidMatrixError, match="divisible"):
            BiregularBitMatrix([0b11, 0b11, 0b11], 4)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            PARALLEL_ROWS.d = 3

    def test_equality_and_hash(self, class_4_2):
        assert len(set(class_4_2)) == len(class_4_2)
        again = BiregularBitMatrix(class_4_2[5].rows, 4)
        assert again == class_4_2[5] and hash(again) == hash(class_4_2[5])

    def test_dense_round_trip(self, pool_8_3):
        from rrdigraph.samplers import circulant

        for mat in pool_8_3[:10]:
            assert BiregularBitMatrix.from_dense(mat.dense()) == mat
        # Any 0/1 dtype packs, and rows of three words round-trip too.
        wide = circulant(130, 7)
        for dtype in (np.uint8, np.int64, bool, float):
            assert BiregularBitMatrix.from_dense(wide.dense().astype(dtype)) == wide

    def test_derived_quantities(self):
        mat = PARALLEL_ROWS
        assert mat.p == Fraction(1, 2)
        assert mat.d_hat == 2
        assert Fraction(mat.d_hat, mat.n) == Fraction(1, 2)
        assert Fraction(mat.m, mat.n) == 1

    def test_biregular_dimensions(self, pool_bipartite):
        mat = pool_bipartite[0]
        assert (mat.m, mat.n, mat.d, mat.dp) == (6, 9, 3, 2)
        assert Fraction(mat.m, mat.n) == Fraction(6, 9) == Fraction(mat.dp, mat.d)
        assert mat.m * mat.d == mat.n * mat.dp


class TestTextFormat:
    def test_round_trip_bit_exact(self, class_4_2, pool_bipartite):
        for mat in list(class_4_2[:10]) + list(pool_bipartite[:5]):
            assert parse_matrix(format_matrix(mat)) == mat

    def test_header_and_shape(self):
        text = format_matrix(PARALLEL_ROWS)
        lines = text.split("\n")
        assert lines[0] == "4 4 2 2"
        assert text.endswith("\n")

    def test_trailing_newline_required(self):
        text = format_matrix(PARALLEL_ROWS).rstrip("\n")
        with pytest.raises(InvalidMatrixError, match="newline"):
            parse_matrix(text)

    def test_rejects_row_sum_violation_with_index(self):
        bad = "2 2 1 1\n11\n00\n"
        with pytest.raises(InvalidMatrixError, match="row 0"):
            parse_matrix(bad)

    def test_rejects_column_sum_violation_with_index(self):
        bad = "2 2 1 1\n10\n10\n"
        with pytest.raises(InvalidMatrixError, match="column 0"):
            parse_matrix(bad)

    def test_rejects_malformed_header(self):
        with pytest.raises(InvalidMatrixError, match="header"):
            parse_matrix("2 2 1\n10\n01\n")

    def test_multiple_matrices_blank_line_separated(self, class_4_2):
        blob = format_matrix(class_4_2[0]) + "\n" + format_matrix(class_4_2[1])
        mats = parse_matrices(blob)
        assert mats == [class_4_2[0], class_4_2[1]]


@st.composite
def class_members(draw_from):
    """One member of an m x n class, m, n <= 12, d over every feasible row
    sum, 0 and n among them."""
    m, n = draw_from(st.integers(1, 12)), draw_from(st.integers(1, 12))
    d = draw_from(st.sampled_from([d for d in range(n + 1) if m * d % n == 0]))
    seed = draw_from(st.integers(0, 2**32 - 1))
    spec = SamplerSpec(kind="switch_mcmc", n=n, d=d, m=m, dp=m * d // n, steps=2 * m * n, seed=seed)
    return sample_many(spec, 1)[0]


class TestTextFormatProperties:
    @given(st.lists(class_members(), min_size=1, max_size=3))
    @example([circulant(12, 0), circulant(12, 12), circulant(1, 1)])
    @settings(max_examples=150, deadline=None)
    def test_round_trip(self, mats):
        text = format_matrices(mats)
        assert parse_matrices(text) == mats
        assert format_matrices(parse_matrices(text)) == text

    @given(class_members(), st.sampled_from(sorted(MALFORMED_TEXT)))
    @example(circulant(7, 0), "wrong-column-sum")
    @example(circulant(7, 7), "wrong-column-sum")
    @settings(max_examples=150, deadline=None)
    def test_malformed_text_names_its_fault(self, mat, case):
        corrupt, message = MALFORMED_TEXT[case]
        with pytest.raises(InvalidMatrixError, match=message):
            parse_matrices(corrupt(format_matrix(mat), mat))


class TestCodegreeExtremes:
    @pytest.mark.parametrize("n, d", [(2, 1), (9, 4), (64, 20), (65, 30), (130, 40)])
    def test_equal_to_the_gram_oracle(self, monkeypatch, n, d):
        words, _ = draw(SamplerSpec(kind="switch_mcmc", n=n, d=d, steps=20 * n, seed=n), 11)
        co = np.array([gram_codegrees(w) for w in words_to_dense(words, n)])
        want = (co.min(axis=1), co.max(axis=1))
        for block_bytes in (1 << 20, 3 * words[0].nbytes):  # one block; blocks of 3 samples
            monkeypatch.setattr("rrdigraph.matrices._PAIR_BLOCK_BYTES", block_bytes)
            lo, hi = codegree_extremes(words)
            assert lo.dtype == hi.dtype == np.int64
            assert np.array_equal(lo, want[0]) and np.array_equal(hi, want[1])

    def test_one_matrix(self, pool_bipartite):
        mat = pool_bipartite[0]
        co = gram_codegrees(mat.dense())
        lo, hi = codegree_extremes(rows_to_words(mat.rows, mat.n)[None])
        assert (lo.tolist(), hi.tolist()) == ([co.min()], [co.max()])


class TestAgainstNaiveOracles:
    def test_codegree_matches_naive(self, pool_8_3):
        for mat in pool_8_3[:15]:
            for i1 in range(0, 8, 3):
                for i2 in range(1, 8, 2):
                    if i1 == i2:
                        continue
                    assert codegree(mat, i1, i2).co == naive_codegree(mat, i1, i2)

    def test_edge_count_matches_naive(self, pool_8_3):
        rng = np.random.default_rng(0)
        for mat in pool_8_3[:15]:
            rows = [int(x) for x in rng.choice(8, 3, replace=False)]
            cols = [int(x) for x in rng.choice(8, 4, replace=False)]
            assert edge_count(mat, VertexSetPair.of(rows, cols)) == naive_edge_count(
                mat, rows, cols
            )


def _member(n, d, m=None, dp=None):
    """A switch-chain member of the class, seeded by its shape."""
    m = n if m is None else m
    spec = SamplerSpec(kind="switch_mcmc", n=n, d=d, m=m, dp=d if dp is None else dp,
                       steps=4 * max(m, n), seed=7 * m + n + d)
    return sample_many(spec, 1)[0]


def _parsed_or_error(parse, text):
    try:
        return parse(text)
    except InvalidMatrixError as exc:
        return str(exc)


_TEXT_SIZES = [
    (n, d) for n in (1, 5, 63, 64, 65, 130, 1000) for d in sorted({0, 1, n // 2, n - 1, n})
]


class TestTextFormatAgainstTheOracles:
    """The packed-int formatter and parser against the per-character ones
    in conftest: the same bytes, the same matrices, the same messages."""

    @pytest.mark.parametrize("n, d", _TEXT_SIZES, ids=[f"n{n}-d{d}" for n, d in _TEXT_SIZES])
    def test_square_classes(self, n, d):
        mat = _member(n, d)
        text = format_matrix(mat)
        assert text == oracle_format_matrix(mat)
        (parsed,) = parse_matrices(text)
        assert parsed == oracle_parse_matrices(text)[0] == mat
        assert (parsed.m, parsed.n, parsed.d, parsed.dp) == (n, n, d, d)

    def test_biregular_class(self, pool_bipartite):
        text = format_matrices(pool_bipartite)
        assert text == "\n".join(oracle_format_matrix(mat) for mat in pool_bipartite)
        assert parse_matrices(text) == oracle_parse_matrices(text) == pool_bipartite

    @pytest.mark.parametrize("case", sorted(MALFORMED_TEXT))
    def test_malformed_text_same_message(self, pool_bipartite, case):
        corrupt, _ = MALFORMED_TEXT[case]
        for mat in (circulant(5, 2), circulant(4, 0), circulant(3, 3), pool_bipartite[0], _member(130, 40)):
            text = corrupt(format_matrix(mat), mat)
            got = _parsed_or_error(parse_matrices, text)
            assert isinstance(got, str) and got == _parsed_or_error(oracle_parse_matrices, text)

    @pytest.mark.parametrize(
        "text",
        [
            "0 3 0 1\n",  # no rows, column sums 0 against dp = 1
            "0 3 0 0\n",  # no rows at all
            "0 -1 0 0\n",
            "0 -100 0 0\n",
            "2 3 1 1\n100\n010\n",  # m*d not divisible by n: a column sum breaks first
            "1 1 1 100000000000000000000000000\n1\n",
            "1 3 1 1\n1_0\n",
            "1 2 1 1\n 1\n",
            "2 2 1 1\n10\n01\n\n1 2 1 1\n11\n",  # the second record is bad
        ],
    )
    def test_edge_texts_same_outcome(self, text):
        assert _parsed_or_error(parse_matrices, text) == _parsed_or_error(oracle_parse_matrices, text)

    def test_no_rows_with_a_huge_width_allocates_nothing(self):
        # The oracle would build a list of 10^12 column sums.
        with pytest.raises(InvalidMatrixError, match=r"^column 0 sums to 0, expected dp = 1$"):
            parse_matrix("0 1000000000000 0 1\n")
        with pytest.raises(InvalidMatrixError, match="at least one row"):
            parse_matrix("0 1000000000000 0 0\n")


class TestInCodegree:
    """The in-codegree of two columns is the out-codegree of the transpose."""

    @pytest.mark.parametrize("m, n, d, dp", [(130, 130, 65, 65), (100, 150, 30, 20), (150, 100, 20, 30)])
    def test_equals_the_transposes_out_codegree(self, m, n, d, dp):
        mat = _member(n, d, m, dp)
        t = mat.transpose()
        column_gram = mat.dense().T.astype(np.int64) @ mat.dense().astype(np.int64)
        for i1 in range(n):
            for i2 in range(i1 + 1, n):
                co = int(column_gram[i1, i2])
                assert codegree(t, i1, i2) == codegree(t, i2, i1)
                assert codegree(t, i1, i2) == CodegreeRecord(co=co, ex=dp - co)
        rec = codegree(t, np.int64(n - 1), np.int64(0))
        assert rec.co == column_gram[n - 1, 0]
        with pytest.raises(IndexError):
            codegree(t, 0, n)
