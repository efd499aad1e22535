"""Exact arithmetic over the polynomial ring F2[U].

A polynomial is stored as a Python int bitmask: bit k holds the
coefficient of U^k.  Addition is xor, multiplication is carry-less, and
the zero polynomial is the int 0.  This keeps hot loops allocation-free
and makes equality checks trivial.

Laurent elements (finite sums of U^k with k possibly negative) are
(shift, mask) pairs meaning U^shift * mask, normalized so that either
mask == 0 and shift == 0, or bit 0 of mask is set.

Matrices are dense lists of rows of ints.  smith_normal_form returns the
diagonal together with the unimodular transforms L, R and their inverses,
so callers can move vectors between the original and diagonal bases in
both directions without re-solving anything.
"""

from __future__ import annotations

from dataclasses import dataclass

ZERO = 0
ONE = 1
U = 2


def mono(k: int) -> int:
    """The monomial U^k as a bitmask, k >= 0."""
    if k < 0:
        raise ValueError("monomial exponent must be nonnegative: %d" % k)
    return 1 << k


def deg(p: int) -> int:
    """Degree of p, with deg(0) == -1."""
    return p.bit_length() - 1


def is_mono(p: int) -> bool:
    return p != 0 and p & (p - 1) == 0


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


def divmod_poly(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of a by b, deg(r) < deg(b)."""
    if b == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    db = deg(b)
    q = 0
    while True:
        da = deg(a)
        if da < db:
            return q, a
        shift = da - db
        q ^= 1 << shift
        a ^= b << shift


def divides(b: int, a: int) -> bool:
    """Whether b divides a (0 divides only 0)."""
    if b == 0:
        return a == 0
    return divmod_poly(a, b)[1] == 0


def gcd(a: int, b: int) -> int:
    while b:
        a, b = b, divmod_poly(a, b)[1]
    return a


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Returns (g, s, t) with s*a + t*b == g == gcd(a, b)."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod_poly(a, b)
        a, b = b, r
        s0, s1 = s1, s0 ^ mul(q, s1)
        t0, t1 = t1, t0 ^ mul(q, t1)
    return a, s0, t0


# ---------------------------------------------------------------------------
# Laurent pairs


def lzero() -> tuple[int, int]:
    return (0, 0)


def lmono(k: int) -> tuple[int, int]:
    """U^k for any integer k."""
    return (k, 1)


def lnormal(shift: int, mask: int) -> tuple[int, int]:
    if mask == 0:
        return (0, 0)
    low = (mask & -mask).bit_length() - 1
    return (shift + low, mask >> low)


def ladd(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    sx, mx = x
    sy, my = y
    if mx == 0:
        return y
    if my == 0:
        return x
    s = min(sx, sy)
    return lnormal(s, (mx << (sx - s)) ^ (my << (sy - s)))


def lmul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    return lnormal(x[0] + y[0], mul(x[1], y[1]))


def lshift(x: tuple[int, int], k: int) -> tuple[int, int]:
    """Multiply by U^k."""
    if x[1] == 0:
        return x
    return (x[0] + k, x[1])


def lterms(x: tuple[int, int]) -> list[int]:
    """Exponents appearing in x, ascending."""
    shift, mask = x
    out = []
    k = 0
    while mask >> k:
        if (mask >> k) & 1:
            out.append(shift + k)
        k += 1
    return out


def lfrompoly(p: int) -> tuple[int, int]:
    return lnormal(0, p)


def lto_poly(x: tuple[int, int]) -> int:
    """The bitmask of x, which must have no negative exponents."""
    shift, mask = x
    if mask == 0:
        return 0
    if shift < 0:
        raise ValueError("Laurent element has negative exponents: %r" % (x,))
    return mask << shift


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


def mat_is_identity(a: list[list[int]]) -> bool:
    return all(
        x == (1 if i == j else 0) for i, row in enumerate(a) for j, x in enumerate(row)
    )


@dataclass
class SNF:
    """L @ M @ R == diag(d) with L, R unimodular; Linv, Rinv their inverses."""

    d: list[int]
    L: list[list[int]]
    Linv: list[list[int]]
    R: list[list[int]]
    Rinv: list[list[int]]
    rank: int


def smith_normal_form(matrix: list[list[int]]) -> SNF:
    """Diagonalize over F2[U] with each diagonal entry dividing the next.

    Pivots are chosen by minimal degree, ties broken by lowest row then
    column.  For matrices whose entries are monomials compatible with a
    grading this choice keeps every intermediate entry homogeneous, so
    the returned basis vectors of graded matrices stay homogeneous.
    """
    m = [row[:] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    L = mat_identity(rows)
    Linv = mat_identity(rows)
    R = mat_identity(cols)
    Rinv = mat_identity(cols)

    def row_add(i, t, q):
        # row_i += q * row_t on m and L; inverse acts on Linv columns
        mt, lt = m[t], L[t]
        mi, li = m[i], L[i]
        for j in range(cols):
            if mt[j]:
                mi[j] ^= mul(q, mt[j])
        for j in range(rows):
            if lt[j]:
                li[j] ^= mul(q, lt[j])
        for r in range(rows):
            if Linv[r][i]:
                Linv[r][t] ^= mul(q, Linv[r][i])

    def row_swap(i, t):
        m[i], m[t] = m[t], m[i]
        L[i], L[t] = L[t], L[i]
        for r in range(rows):
            Linv[r][i], Linv[r][t] = Linv[r][t], Linv[r][i]

    def row_pair(i, t):
        # unimodular transform on rows (t, i) putting gcd(m[t][t], m[i][t])
        # into the pivot slot and 0 below it
        p, a = m[t][t], m[i][t]
        g, s, u = xgcd(p, a)
        alpha = divmod_poly(a, g)[0]
        beta = divmod_poly(p, g)[0]
        for mat in (m, L):
            rt, ri = mat[t], mat[i]
            for j in range(len(rt)):
                x, y = rt[j], ri[j]
                rt[j] = mul(s, x) ^ mul(u, y)
                ri[j] = mul(alpha, x) ^ mul(beta, y)
        for r in range(rows):
            x, y = Linv[r][t], Linv[r][i]
            Linv[r][t] = mul(beta, x) ^ mul(alpha, y)
            Linv[r][i] = mul(u, x) ^ mul(s, y)

    def col_add(j, t, q):
        # col_j += q * col_t on m and R; inverse acts on Rinv rows
        for r in range(rows):
            if m[r][t]:
                m[r][j] ^= mul(q, m[r][t])
        for r in range(cols):
            if R[r][t]:
                R[r][j] ^= mul(q, R[r][t])
        rj = Rinv[j]
        rt = Rinv[t]
        for c in range(cols):
            if rj[c]:
                rt[c] ^= mul(q, rj[c])

    def col_swap(j, t):
        for r in range(rows):
            m[r][j], m[r][t] = m[r][t], m[r][j]
        for r in range(cols):
            R[r][j], R[r][t] = R[r][t], R[r][j]
        Rinv[j], Rinv[t] = Rinv[t], Rinv[j]

    def col_pair(j, t):
        # unimodular transform on columns (t, j); dual of row_pair
        p, b = m[t][t], m[t][j]
        g, s, u = xgcd(p, b)
        alpha = divmod_poly(b, g)[0]
        beta = divmod_poly(p, g)[0]
        for mat, n in ((m, rows), (R, cols)):
            for r in range(n):
                x, y = mat[r][t], mat[r][j]
                mat[r][t] = mul(s, x) ^ mul(u, y)
                mat[r][j] = mul(alpha, x) ^ mul(beta, y)
        rt, rj = Rinv[t], Rinv[j]
        for c in range(cols):
            x, y = rt[c], rj[c]
            rt[c] = mul(beta, x) ^ mul(alpha, y)
            rj[c] = mul(u, x) ^ mul(s, y)

    def find_pivot(t):
        best = None
        for i in range(t, rows):
            mi = m[i]
            for j in range(t, cols):
                p = mi[j]
                if p and (best is None or deg(p) < best[0]):
                    best = (deg(p), i, j)
        return best

    t = 0
    while t < min(rows, cols):
        best = find_pivot(t)
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            row_swap(pi, t)
        if pj != t:
            col_swap(pj, t)
        while True:
            # Clear column t.  The gcd transforms also rewrite row t, and
            # their column-side duals rewrite column t, so alternate until
            # a pass needs no gcd step; each gcd step strictly drops the
            # pivot degree, which bounds the number of passes.
            for i in range(t + 1, rows):
                a = m[i][t]
                if a:
                    q, r = divmod_poly(a, m[t][t])
                    if r:
                        row_pair(i, t)
                    else:
                        row_add(i, t, q)
            col_gcd_used = False
            for j in range(t + 1, cols):
                b = m[t][j]
                if b:
                    q, r = divmod_poly(b, m[t][t])
                    if r:
                        col_pair(j, t)
                        col_gcd_used = True
                    else:
                        col_add(j, t, q)
            if col_gcd_used:
                continue
            # column and row t are clear; enforce divisibility of the
            # remaining block by the pivot
            offender = None
            for i in range(t + 1, rows):
                mi = m[i]
                for j in range(t + 1, cols):
                    if mi[j] and not divides(m[t][t], mi[j]):
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_add(t, offender, 1)
        t += 1

    d = [m[i][i] for i in range(min(rows, cols))]
    rank = sum(1 for x in d if x)
    return SNF(d=d, L=L, Linv=Linv, R=R, Rinv=Rinv, rank=rank)


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
        q, r = divmod_poly(c[k], dk)
        if r:
            return None
        y[k] = q
    for k in range(min(rows, cols), rows):
        if c[k]:
            return None
    return mat_vec(snf.R, y)
