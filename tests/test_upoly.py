"""Arithmetic and Smith normal form over F2[U].

Oracles: SNF is checked by recomposing L @ M @ R and by multiplying the
returned transforms against inverses computed by _inverse, on both
sides, on random graded matrices (entry (i, j) zero or the one monomial
the row and column gradings allow); matrices that are not graded must
raise.
"""

import pytest
from hypothesis import given, strategies as st

from cfku import upoly as up

polys = st.integers(min_value=0, max_value=31)  # degree <= 4
small = st.integers(min_value=1, max_value=6)


def P(*exps):
    """Polynomial with the given exponents, e.g. P(0,2) = 1 + U^2."""
    out = 0
    for e in exps:
        out ^= 1 << e
    return out


def test_add_cancellation():
    assert P(2, 1) ^ P(2) == P(1)


def test_mono_guards():
    assert up.mono(3) == 8
    with pytest.raises(ValueError):
        up.mono(-1)


@given(polys, polys)
def test_mul_matches_schoolbook(a, b):
    acc = 0
    for i in range(5):
        if (a >> i) & 1:
            for j in range(5):
                if (b >> j) & 1:
                    acc ^= 1 << (i + j)
    assert up.mul(a, b) == acc


def _inverse(t):
    """Inverse of a unimodular transform t.

    Once the diagonal of t's own Smith normal form is all units,
    L_s t R_s = I, so t^-1 = R_s L_s.
    """
    s = up.smith_normal_form(t)
    assert s.d == [1] * len(t)
    return up.mat_mul(s.R, s.L)


def _check_snf(m):
    res = up.smith_normal_form(m)
    rows, cols = len(m), len(m[0]) if m else 0
    # recomposition oracle
    lmr = up.mat_mul(up.mat_mul(res.L, m), res.R)
    for i in range(rows):
        for j in range(cols):
            want = res.d[i] if i == j and i < len(res.d) else 0
            assert lmr[i][j] == want
    # unimodularity: verified two-sided inverses over F2[U]
    linv, rinv = _inverse(res.L), _inverse(res.R)
    assert up.mat_mul(res.L, linv) == up.mat_identity(rows)
    assert up.mat_mul(linv, res.L) == up.mat_identity(rows)
    assert up.mat_mul(res.R, rinv) == up.mat_identity(cols)
    assert up.mat_mul(rinv, res.R) == up.mat_identity(cols)
    # monomial diagonal with nondecreasing exponents, zeros last
    nonzero = [x for x in res.d if x]
    assert res.d == nonzero + [0] * (len(res.d) - len(nonzero))
    assert all(x & (x - 1) == 0 for x in nonzero)
    assert [up.deg(x) for x in nonzero] == sorted(up.deg(x) for x in nonzero)
    assert res.rank == len(nonzero)
    return res


def test_snf_identity():
    res = _check_snf(up.mat_identity(2))
    assert res.d == [1, 1]


def test_snf_upper_triangular():
    res = _check_snf([[P(1), P(1)], [0, P(2)]])
    assert res.d == [P(1), P(2)]


def test_snf_empty():
    res = up.smith_normal_form([])
    assert res.d == [] and res.rank == 0


def test_snf_rejects_non_monomial():
    with pytest.raises(ValueError, match="not graded"):
        up.smith_normal_form([[P(1, 0), P(1)], [P(1), P(1, 0)]])


def test_snf_rejects_ungraded():
    # every entry is a monomial, but clearing column 0 leaves 1 + U
    with pytest.raises(ValueError, match="not graded"):
        up.smith_normal_form([[1, P(1)], [1, 1]])


@st.composite
def graded_matrices(draw):
    """Entry (i, j) is 0 or U^(r_i - c_j), present only when r_i >= c_j."""
    rows = draw(small)
    cols = draw(small)
    r = draw(st.lists(st.integers(0, 4), min_size=rows, max_size=rows))
    c = draw(st.lists(st.integers(0, 4), min_size=cols, max_size=cols))
    return [
        [up.mono(r[i] - c[j]) if r[i] >= c[j] and draw(st.booleans()) else 0 for j in range(cols)]
        for i in range(rows)
    ]


@given(graded_matrices())
def test_snf_random(m):
    _check_snf(m)


@given(graded_matrices(), st.data())
def test_solve_random(m, data):
    y0 = [data.draw(polys) for _ in m[0]]
    b = up.mat_vec(m, y0)
    y = up.solve(m, b)
    assert y is not None
    assert up.mat_vec(m, y) == b


def test_solve_no_solution():
    assert up.solve([[P(1)]], [P(0)]) is None
