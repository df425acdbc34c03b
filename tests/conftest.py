"""Shared fixtures and independent oracle implementations.

The oracles here deliberately avoid the library's fast paths: plain
Python loops over entries, so the packed/vectorised kernels are checked
against something an undergraduate could audit.
"""

import itertools
import sys

import numpy as np
import pytest

from rrdigraph.couplings import RowOrder, reflect
from rrdigraph.exchangeable import _reduce_pair, _switch_stats, reflection_f
from rrdigraph.matrices import BiregularBitMatrix, InvalidMatrixError
from rrdigraph.samplers import SamplerSpec, enumerate_all, sample_many


def pytest_terminal_summary(terminalreporter):
    acceptance = sys.modules.get("test_acceptance")
    lines = getattr(acceptance, "ACCEPTANCE_LINES", None) if acceptance else None
    if lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def class_4_2():
    """All 90 matrices with n = 4, d = 2 (frozen count checked elsewhere)."""
    return list(enumerate_all(4, 4, 2, 2))


@pytest.fixture(scope="session")
def pool_8_3():
    spec = SamplerSpec(kind="switch_mcmc", n=8, d=3, steps=600, seed=101)
    return sample_many(spec, 60)


@pytest.fixture(scope="session")
def pool_bipartite():
    spec = SamplerSpec(kind="rejection", n=9, d=3, m=6, dp=2, seed=77)
    return sample_many(spec, 40)


def naive_edge_count(matrix, rows, cols):
    """Double loop over (i, j), straight off the definition."""
    return sum(matrix.entry(i, j) for i in rows for j in cols)


def naive_codegree(matrix, i1, i2):
    return sum(
        1 for j in range(matrix.n) if matrix.entry(i1, j) == 1 and matrix.entry(i2, j) == 1
    )


def gram_codegrees(dense):
    """Codegrees of every ordered pair of distinct rows of a 0/1 array: the
    off-diagonal entries of its dense int64 Gram matrix."""
    dense = np.asarray(dense, dtype=np.int64)
    gram = dense @ dense.T
    return gram[~np.eye(len(gram), dtype=bool)]


def naive_column_classes(matrix, i1, i2):
    """Column census of the (i1, i2) row pair: (one_one, one_zero, zero_one, zero_zero)."""
    counts = {"11": 0, "10": 0, "01": 0, "00": 0}
    for j in range(matrix.n):
        key = f"{matrix.entry(i1, j)}{matrix.entry(i2, j)}"
        counts[key] += 1
    return counts


def naive_walk(matrix, j1, j2, order=None):
    """Walk positions w(1..m) built entry by entry."""
    order = order or RowOrder(0, 1)
    positions = []
    pos = 0
    for i in order.sequence(matrix.m):
        pos += matrix.entry(i, j1) - matrix.entry(i, j2)
        positions.append(pos)
    return positions


def naive_reflecting(matrix, j1, j2, order=None):
    w = naive_walk(matrix, j1, j2, order)
    m = len(w)
    return m >= 3 and w[0] == 1 and w[1] != 1 and any(w[i] == 1 for i in range(2, m))


def naive_minor_scan(matrix, i1, i2, order=None):
    """(nK, nI, nI_reflecting) by classifying every ordered column pair."""
    order = order or RowOrder(i1, i2)
    n_k = n_i = n_i_reflecting = 0
    for j1 in range(matrix.n):
        for j2 in range(matrix.n):
            minor = (
                matrix.entry(i1, j1),
                matrix.entry(i1, j2),
                matrix.entry(i2, j1),
                matrix.entry(i2, j2),
            )
            if minor == (1, 0, 1, 0):
                n_k += 1
            elif minor == (1, 0, 0, 1):
                n_i += 1
                if naive_reflecting(matrix, j1, j2, order):
                    n_i_reflecting += 1
    return n_k, n_i, n_i_reflecting


def _with_line(text, index, line):
    lines = text.split("\n")
    lines[index] = line
    return "\n".join(lines)


def _row_0(text, change):
    return _with_line(text, 1, change(text.split("\n")[1]))


def _header_fields(text, change):
    fields = text.split("\n", 1)[0].split()
    return _with_line(text, 0, " ".join(change(fields)))


def _move_a_one(text, matrix):
    """Row 0 keeps its sum d but moves a one onto a zero, so a column sum
    breaks; with d in {0, n} there is no such move and the header's dp is
    raised instead."""
    if matrix.d in (0, matrix.n):
        return _header_fields(text, lambda f: f[:3] + [str(int(f[3]) + 1)])
    row = list(text.split("\n")[1])
    j, k = row.index("1"), row.index("0")
    row[j], row[k] = "0", "1"
    return _with_line(text, 1, "".join(row))


# Malformed matrix texts: name -> (corrupt(text, matrix), the message that
# names the fault).  Each corrupts the text of one valid matrix.
MALFORMED_TEXT = {
    "bad-header": (lambda text, mat: _header_fields(text, lambda f: f[:3]), "malformed header"),
    "non-integer-field": (lambda text, mat: _header_fields(text, lambda f: f[:2] + ["x", f[3]]),
                          "non-integer header field"),
    "wrong-row-count": (lambda text, mat: "\n".join(text.split("\n")[:-2]) + "\n",
                        r"expected \d+ rows, found \d+"),
    "bad-character": (lambda text, mat: _row_0(text, lambda r: "2" + r[1:]),
                      r"row 0 is not a string of \d+ characters in 0/1"),
    "wrong-row-sum": (lambda text, mat: _row_0(text, lambda r: "10"[int(r[0])] + r[1:]),
                      r"row 0 sums to \d+, expected d = \d+"),
    "wrong-column-sum": (_move_a_one, r"column \d+ sums to \d+, expected dp = \d+"),
    "no-trailing-newline": (lambda text, mat: text[:-1], "trailing newline"),
}


def oracle_format_matrix(matrix):
    """The text format written one character per entry."""
    lines = [f"{matrix.m} {matrix.n} {matrix.d} {matrix.dp}"]
    dense = matrix.dense()
    for i in range(matrix.m):
        lines.append("".join("1" if v else "0" for v in dense[i]))
    return "\n".join(lines) + "\n"


def oracle_parse_matrices(text):
    """The text format read one character per entry, with a running column
    sum; the same checks, in the same order and with the same messages, as
    the library's parser."""
    if not text.endswith("\n"):
        raise InvalidMatrixError("matrix text must end with a trailing newline")
    mats = []
    for block in (b for b in text.split("\n\n") if b.strip()):
        lines = block.strip("\n").split("\n")
        header = lines[0].split()
        if len(header) != 4:
            raise InvalidMatrixError(f"malformed header {lines[0]!r}: expected 'm n d dp'")
        try:
            m, n, d, dp = (int(x) for x in header)
        except ValueError as exc:
            raise InvalidMatrixError(f"non-integer header field in {lines[0]!r}") from exc
        if len(lines) - 1 != m:
            raise InvalidMatrixError(f"expected {m} rows, found {len(lines) - 1}")
        rows = []
        col_sums = [0] * n
        for i, line in enumerate(lines[1:]):
            if len(line) != n or set(line) - {"0", "1"}:
                raise InvalidMatrixError(f"row {i} is not a string of {n} characters in 0/1")
            r = 0
            for j, ch in enumerate(line):
                if ch == "1":
                    r |= 1 << j
                    col_sums[j] += 1
            if r.bit_count() != d:
                raise InvalidMatrixError(f"row {i} sums to {r.bit_count()}, expected d = {d}")
            rows.append(r)
        for j, total in enumerate(col_sums):
            if total != dp:
                raise InvalidMatrixError(f"column {j} sums to {total}, expected dp = {dp}")
        mats.append(BiregularBitMatrix(rows, n, _trusted=True))
    return mats


def brute_force_class_4_2():
    """|{4x4 0/1 matrices, all line sums 2}| without the library enumerator."""
    masks = [sum(1 << j for j in combo) for combo in itertools.combinations(range(4), 2)]
    found = []
    for rows in itertools.product(masks, repeat=4):
        col_sums = [sum((r >> j) & 1 for r in rows) for j in range(4)]
        if all(s == 2 for s in col_sums):
            found.append(rows)
    return found


def all_set_pairs(m, n, nonempty=True):
    row_sets = [
        combo for size in range(0 if not nonempty else 1, m + 1)
        for combo in itertools.combinations(range(m), size)
    ]
    col_sets = [
        combo for size in range(0 if not nonempty else 1, n + 1)
        for combo in itertools.combinations(range(n), size)
    ]
    return [(a, b) for a in row_sets for b in col_sets]


def matrix_from_strings(rows):
    return BiregularBitMatrix([int(r[::-1], 2) for r in rows], len(rows[0]))


def reflection_vf_oracle(matrix, i1, i2):
    """(sum, max) of |f - f~| (scale n) over every ordered column pair whose
    reflection changes the matrix, f~ recomputed on each image."""
    order = RowOrder(i1, i2)
    f0 = reflection_f(matrix, i1, i2).f_scaled
    steps = []
    for j1 in range(matrix.n):
        for j2 in range(matrix.n):
            if j1 == j2:
                continue
            image = reflect(matrix, j1, j2, order)
            if image is not matrix:
                steps.append(abs(f0 - reflection_f(image, i1, i2).f_scaled))
    return sum(steps), max(steps, default=0)


def switchable_sites(dense, rows_a, rows_c, cols_b, cols_c):
    for i1 in rows_a:
        for i2 in rows_c:
            b_in_1 = [j for j in cols_b if dense[i1, j] == 1 and dense[i2, j] == 0]
            b_in_2 = [j for j in cols_b if dense[i2, j] == 1 and dense[i1, j] == 0]
            c_in_1 = [j for j in cols_c if dense[i1, j] == 1 and dense[i2, j] == 0]
            c_in_2 = [j for j in cols_c if dense[i2, j] == 1 and dense[i1, j] == 0]
            for j1 in b_in_1:
                for j2 in c_in_2:
                    yield i1, i2, j1, j2, "I"
            for j1 in b_in_2:
                for j2 in c_in_1:
                    yield i1, i2, j1, j2, "J"


def switch_delta_f(matrix, dense, nb, ex, rows_a, rows_c, cols_b_set, site):
    """f(M) - f(M~) for one switchable site, summed over affected pairs only.

    Only pairs (u1, u2) in A x A^c with u1 = I1 or u2 = I2 contribute; the
    codegree and nb updates are O(1) per pair given the precomputed stats.
    """
    i1, i2, j1, j2, kind = site
    sign = 1 if kind == "I" else -1  # entries at (i1,j1),(i2,j2) drop by `sign`
    b1 = 1 if j1 in cols_b_set else 0
    b2 = 1 if j2 in cols_b_set else 0
    nb_i1_new = nb[i1] + sign * (b2 - b1)
    nb_i2_new = nb[i2] + sign * (b1 - b2)

    col1 = dense[:, j1]
    col2 = dense[:, j2]
    delta = 0
    for u2 in rows_c:
        old = ex[i1, u2] * (nb[i1] - nb[u2])
        if u2 == i2:
            new = ex[i1, u2] * (nb_i1_new - nb_i2_new)
        else:
            ex_new = ex[i1, u2] + sign * (col1[u2] - col2[u2])
            new = ex_new * (nb_i1_new - nb[u2])
        delta += old - new
    for u1 in rows_a:
        if u1 == i1:
            continue  # the (i1, i2) pair was handled above
        old = ex[u1, i2] * (nb[u1] - nb[i2])
        ex_new = ex[u1, i2] + sign * (col2[u1] - col1[u1])
        new = ex_new * (nb[u1] - nb_i2_new)
        delta += old - new
    return int(delta)


def switching_vf_oracle(matrix, pair):
    """(sum, max) of |f - f~| over the switchable sites of the reduced pair,
    one site at a time."""
    pair = _reduce_pair(matrix, pair)
    dense, rows_a, rows_c, cols_b, cols_c, nb, ex = _switch_stats(matrix, pair)
    steps = [
        abs(switch_delta_f(matrix, dense, nb, ex, rows_a, rows_c, set(cols_b), site))
        for site in switchable_sites(dense, rows_a, rows_c, cols_b, cols_c)
    ]
    return sum(steps), max(steps, default=0)
