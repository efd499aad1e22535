"""Exact arithmetic over the polynomial ring F2[U].

A polynomial is stored as a Python int bitmask: bit k holds the
coefficient of U^k.  Addition is xor, multiplication is carry-less, and
the zero polynomial is the int 0.  This keeps hot loops allocation-free
and makes equality checks trivial.

Matrices are dense lists of rows of ints.  smith_normal_form takes only
graded matrices, whose nonzero entries are single monomials U^a with a
fixed by a row and a column grading, as every differential and map of a
graded complex is; it raises ValueError on any other matrix.  It returns
the diagonal together with the unimodular transforms L and R.  No
answer reads it: homology.eliminate decomposes a differential directly,
and cone.involutive_vs reads the saturated tower off the Q-coordinates.
Smith normal form and solve serve only the oracle cone.brute_force_vs,
which decides image membership with solve.
"""

from __future__ import annotations

from dataclasses import dataclass


def mono(k: int) -> int:
    """The monomial U^k as a bitmask, k >= 0."""
    if k < 0:
        raise ValueError("monomial exponent must be nonnegative: %d" % k)
    return 1 << k


def deg(p: int) -> int:
    """Degree of p, with deg(0) == -1."""
    return p.bit_length() - 1


def mul(a: int, b: int) -> int:
    """Carry-less product of two bitmask polynomials."""
    if a == 0 or b == 0:
        return 0
    # iterate over the sparser operand
    if a.bit_count() > b.bit_count():
        a, b = b, a
    out = 0
    while a:
        low = a & -a
        out ^= b << (low.bit_length() - 1)
        a ^= low
    return out


# ---------------------------------------------------------------------------
# Matrices over F2[U]


def mat_zero(rows: int, cols: int) -> list[list[int]]:
    return [[0] * cols for _ in range(rows)]


def mat_identity(n: int) -> list[list[int]]:
    m = mat_zero(n, n)
    for i in range(n):
        m[i][i] = 1
    return m


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = mat_zero(rows, cols)
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            p = ai[k]
            if p == 0:
                continue
            bk = b[k]
            for j in range(cols):
                if bk[j]:
                    oi[j] ^= mul(p, bk[j])
    return out


def mat_vec(a: list[list[int]], v: list[int]) -> list[int]:
    out = []
    for row in a:
        acc = 0
        for p, x in zip(row, v):
            if p and x:
                acc ^= mul(p, x)
        out.append(acc)
    return out


@dataclass
class SNF:
    """L @ M @ R == diag(d) with L, R unimodular."""

    d: list[int]
    L: list[list[int]]
    R: list[list[int]]
    rank: int


def smith_normal_form(matrix: list[list[int]]) -> SNF:
    """Diagonalize a graded matrix over F2[U] by monomial elimination.

    The pivot is the entry of lowest exponent in the remaining block, ties
    broken by lowest row then column.  No entry of its row or column has
    a lower exponent, so shifts clear both, and the diagonal exponents
    come out nondecreasing.  The pivot scan reads every entry the
    elimination writes, so a non-monomial entry, in the input or created
    by clearing an ungraded matrix, raises ValueError.
    """
    m = [row[:] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    L = mat_identity(rows)
    R = mat_identity(cols)

    for t in range(min(rows, cols)):
        best = None
        for i in range(t, rows):
            mi = m[i]
            for j in range(t, cols):
                p = mi[j]
                if p:
                    if p & (p - 1):
                        raise ValueError(
                            "entry (%d, %d) is not a monomial: matrix is not graded" % (i, j)
                        )
                    if best is None or p < best[0]:
                        best = (p, i, j)
        if best is None:
            break
        p, pi, pj = best
        e = deg(p)
        if pi != t:
            m[pi], m[t] = m[t], m[pi]
            L[pi], L[t] = L[t], L[pi]
        if pj != t:
            for mat in (m, R):
                for r in mat:
                    r[pj], r[t] = r[t], r[pj]
        mt, lt = m[t], L[t]
        for i in range(t + 1, rows):
            if not m[i][t]:
                continue
            # row_i += U^s row_t on m and L
            s = deg(m[i][t]) - e
            mi, li = m[i], L[i]
            for j in range(t, cols):
                if mt[j]:
                    mi[j] ^= mt[j] << s
            for j in range(rows):
                if lt[j]:
                    li[j] ^= lt[j] << s
        for j in range(t + 1, cols):
            if not mt[j]:
                continue
            # col_j += U^s col_t on m and R.  Column t of m is clear but
            # for the pivot, so m changes only at m[t][j].
            s = deg(mt[j]) - e
            mt[j] = 0
            for r in R:
                if r[t]:
                    r[j] ^= r[t] << s

    d = [m[i][i] for i in range(min(rows, cols))]
    rank = sum(1 for x in d if x)
    return SNF(d=d, L=L, R=R, rank=rank)


def solve(a: list[list[int]], b: list[int], snf: SNF | None = None) -> list[int] | None:
    """One solution y of a @ y == b over F2[U], or None if there is none."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if snf is None:
        snf = smith_normal_form(a)
    c = mat_vec(snf.L, b)
    y = [0] * cols
    for k in range(min(rows, cols)):
        dk = snf.d[k]
        if dk == 0:
            if c[k]:
                return None
            continue
        # dk is a monomial U^e: divisible iff the low e bits vanish
        if c[k] & (dk - 1):
            return None
        y[k] = c[k] >> deg(dk)
    for k in range(min(rows, cols), rows):
        if c[k]:
            return None
    return mat_vec(snf.R, y)
