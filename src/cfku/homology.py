"""Homology of free graded F2[U]-complexes and the classical outputs.

The decomposition works in two Smith normal form passes: one on the
differential to split off the kernel, and one on the relation matrix of
the image inside the kernel to read off the tower and torsion summands.
Both matrices must be graded, every nonzero entry a single monomial U^a;
smith_normal_form raises ValueError otherwise, which the CLI reports as
an internal error (exit 4).  Both passes track the unimodular transforms
and their inverses, so every summand comes with an explicit cycle
representative and any cycle can be rewritten in summand coordinates
(needed for the image-of-Q tests in the involutive invariants).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import upoly as up
from .complexes import FilteredComplex, SubquotientComplex, subquotient


def vector_grading(vec: list[int], maslov: list[int]) -> int | None:
    """Grading of a homogeneous vector, None for the zero vector.

    Every monomial term U^d at basis slot k contributes grading
    maslov[k] - 2d; they must all agree or the vector is not homogeneous.
    """
    grading = None
    for k, p in enumerate(vec):
        d = 0
        while p:
            if p & 1:
                g = maslov[k] - 2 * d
                if grading is None:
                    grading = g
                elif grading != g:
                    raise ValueError("vector is not homogeneous")
            p >>= 1
            d += 1
    return grading


@dataclass
class GradedModule:
    """H = F[U]^t + sum of F[U]/U^k with graded generators.

    free: list of (grading, representative); torsion: list of
    (grading, order_exp, representative).  Representatives are cycle
    vectors in the basis of the underlying complex.
    """

    maslov: list[int]
    free: list[tuple[int, list[int]]]
    torsion: list[tuple[int, int, list[int]]]
    # internals for coordinates of arbitrary cycles
    _rho: int = 0
    _Rinv: list[list[int]] = field(default_factory=list)
    _Lp: list[list[int]] = field(default_factory=list)
    _free_slots: list[int] = field(default_factory=list)
    _torsion_slots: list[int] = field(default_factory=list)

    def class_coords(self, x: list[int]) -> tuple[list[int], list[int]]:
        """Coordinates of the class [x] as (free coords, torsion coords).

        Torsion coords are reduced mod the summand order.  Raises if x is
        not a cycle.
        """
        y = up.mat_vec(self._Rinv, x)
        if any(y[k] for k in range(self._rho)):
            raise ValueError("vector is not a cycle")
        w = up.mat_vec(self._Lp, y[self._rho :])
        fc = [w[r] for r in self._free_slots]
        tc = []
        for pos, r in enumerate(self._torsion_slots):
            order = self.torsion[pos][1]
            tc.append(w[r] & (up.mono(order) - 1))
        return fc, tc


def graded_homology(d: list[list[int]], maslov: list[int]) -> GradedModule:
    """Homology of an F2[U]-complex given by one square matrix d, d^2=0."""
    n = len(d)
    if n == 0:
        return GradedModule([], [], [])
    dd = up.mat_mul(d, d)
    if any(any(row) for row in dd):
        raise ValueError("differential does not square to zero")
    s1 = up.smith_normal_form(d)
    rho = s1.rank
    # cycles: columns rho.. of R; a vector x is a cycle iff (Rinv x) vanishes
    # in the first rho slots
    kernel_cols = [[s1.R[i][k] for k in range(rho, n)] for i in range(n)]
    # image generators in kernel coordinates give the relation matrix
    ri_li = up.mat_mul(s1.Rinv, s1.Linv)
    rel = [
        [up.mul(s1.d[k], ri_li[rho + r][k]) for k in range(rho)]
        for r in range(n - rho)
    ]
    s2 = up.smith_normal_form(rel)
    free: list[tuple[int, list[int]]] = []
    torsion: list[tuple[int, int, list[int]]] = []
    free_slots: list[int] = []
    torsion_slots: list[int] = []
    dprime = list(s2.d) + [0] * (n - rho - len(s2.d))
    for r in range(n - rho):
        order_poly = dprime[r]
        if order_poly == 1:
            continue
        rep = up.mat_vec(kernel_cols, [s2.Linv[i][r] for i in range(n - rho)])
        grading = vector_grading(rep, maslov)
        if order_poly == 0:
            free.append((grading, rep))
            free_slots.append(r)
        else:
            torsion.append((grading, up.deg(order_poly), rep))
            torsion_slots.append(r)
    return GradedModule(
        maslov,
        free,
        torsion,
        _rho=rho,
        _Rinv=s1.Rinv,
        _Lp=s2.L,
        _free_slots=free_slots,
        _torsion_slots=torsion_slots,
    )


def homology_over_U(sq: SubquotientComplex) -> GradedModule:
    return graded_homology(sq.matrix(), sq.maslov)


def v0_from_homology(h: GradedModule) -> int:
    """-1/2 times the grading of the one tower of h, which is H(A0-) or
    the homology of a complex homotopy equivalent to A0-."""
    if len(h.free) != 1:
        raise ValueError(
            "H(A0-) free rank is %d, not 1: not a knot-like complex" % len(h.free)
        )
    grading = h.free[0][0]
    if grading % 2:
        raise ValueError("tower grading is odd")
    return -grading // 2


def v0(c: FilteredComplex) -> int:
    """V0 from the homology of the whole, uncancelled A0-: the dense
    oracle for the V0 that cone.involutive_invariants reads after
    cancellation."""
    return v0_from_homology(homology_over_U(subquotient(c, "A0minus")))


# ---------------------------------------------------------------------------
# Knot Floer homology of the associated graded object


def _f2_rank(rows: list[int]) -> int:
    """Rank of a matrix over F2 with rows stored as bitmasks."""
    rank = 0
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            low = row & -row
            if low in pivots:
                row ^= pivots[low]
            else:
                pivots[low] = row
                rank += 1
                break
    return rank


def hfk_hat(c: FilteredComplex) -> dict[tuple[int, int], int]:
    """Bigraded ranks: (alexander w, maslov k) -> rank of H(C{i=0, j=w}).

    One i = 0 subquotient is split by diagonal j - i: its arrows whose
    ends share a diagonal are exactly those of the i0_j_w summands.
    """
    sq = subquotient(c, "i_equals_0")
    diag = [c.gens[g].j - c.gens[g].i for g, _k0 in sq.basis]
    targets_of: dict[int, list[int]] = {}
    for t, s in sq.diff:
        if diag[t] == diag[s]:
            targets_of.setdefault(s, []).append(t)
    # diagonal -> grading -> basis indices
    by_diag: dict[int, dict[int, list[int]]] = {}
    for idx, (w, m) in enumerate(zip(diag, sq.maslov)):
        by_diag.setdefault(w, {}).setdefault(m, []).append(idx)
    table: dict[tuple[int, int], int] = {}
    for w in sorted(by_diag):
        gens_at = by_diag[w]
        # boundary blocks from grading k to k-1; entries are all U^0 here
        ranks: dict[int, int] = {}
        for k, sources in gens_at.items():
            targets = gens_at.get(k - 1, [])
            tpos = {t: b for b, t in enumerate(targets)}
            rows = []
            for s in sources:
                row = 0
                for t in targets_of.get(s, ()):
                    row |= 1 << tpos[t]
                rows.append(row)
            ranks[k] = _f2_rank(rows)
        for k, gens in gens_at.items():
            rank = len(gens) - ranks.get(k, 0) - ranks.get(k + 1, 0)
            if rank:
                table[(w, k)] = rank
    return table


def alexander_poly(table: dict[tuple[int, int], int]) -> dict[int, int]:
    """Graded Euler characteristic of an hfk_hat table, exponent -> coefficient."""
    out: dict[int, int] = {}
    for (w, k), rank in table.items():
        out[w] = out.get(w, 0) + (-1) ** (k % 2) * rank
    return {w: coeff for w, coeff in sorted(out.items()) if coeff}


def genus_detect(table: dict[tuple[int, int], int]) -> int:
    """Top Alexander grading of an hfk_hat table."""
    return max(w for (w, _k) in table)
