"""Mapping cone of 1 + iota on A0- and the involutive correction terms.

The cone is a free F2[U]-complex on two copies of the A0- basis, written
{x} and {Qx}, with differential d + Q(1 + iota) and gradings shifted so
that Q has degree -1.  Its homology carries exactly two infinite towers;
the lower correction term reads off the tower surviving the image of the
Q-action, the upper one the quotient tower.

Two independent extractors are provided.  involutive_vs diagonalizes the
induced Q-action on the free part of the homology.  brute_force_vs
enumerates homogeneous classes grading by grading and applies the
definitions literally; it is the oracle the fast path is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import upoly as up
from .complexes import FilteredComplex, SubquotientComplex, subquotient
from .homology import GradedModule, graded_homology, v0, vector_grading
from .involution import Involution


def restrict_to_a0(iota: Involution, a0: SubquotientComplex) -> list[list[int]]:
    """Matrix of iota on the A0- basis, entries in F2[U].

    Skew-filtered maps preserve the quadrant i <= 0, j <= 0, so every
    entry lands at a nonnegative U-power; a negative power means the map
    was not skew-filtered and is reported as an error.
    """
    n = len(a0.basis)
    slot = {g: k for k, (g, _k0) in enumerate(a0.basis)}
    out = up.mat_zero(n, n)
    for (t, s), a in iota.map.matrix.items():
        if s not in slot or t not in slot:
            raise ValueError("involution leaves the A0- basis")
        e = a0.basis[slot[s]][1] + a - a0.basis[slot[t]][1]
        if e < 0:
            raise ValueError(
                "iota does not restrict to A0-: U^%d from %s to %s"
                % (e, iota.map.source.gens[s].label, iota.map.source.gens[t].label)
            )
        out[slot[t]][slot[s]] = up.mono(e)
    return out


@dataclass
class ConeComplex:
    """Cone of 1 + iota: basis x_0..x_{n-1}, Qx_0..Qx_{n-1}."""

    labels: list[str]
    maslov: list[int]
    d: list[list[int]]
    q: list[list[int]]  # the Q-action endomorphism


def build_cone(c: FilteredComplex, iota: Involution) -> ConeComplex:
    a0 = subquotient(c, "A0minus")
    d0 = a0.matrix()
    f = restrict_to_a0(iota, a0)
    n = len(a0.basis)
    labels = a0.labels()
    labels = labels + ["Q " + lab for lab in labels]
    maslov = [m + 1 for m in a0.maslov] + list(a0.maslov)
    d = up.mat_zero(2 * n, 2 * n)
    for i in range(n):
        for j in range(n):
            d[i][j] = d0[i][j]
            d[n + i][n + j] = d0[i][j]
            d[n + i][j] = f[i][j] ^ (1 if i == j else 0)
    q = up.mat_zero(2 * n, 2 * n)
    for i in range(n):
        q[n + i][i] = 1
    return ConeComplex(labels, maslov, d, q)


def cone_homology(cone: ConeComplex) -> GradedModule:
    return graded_homology(cone.d, cone.maslov)


def _q_on_free(cone: ConeComplex, h: GradedModule) -> list[list[int]]:
    """Free-part coordinates of Q applied to every homology generator.

    Returns a 2 x (number of summands) matrix; torsion classes can have
    free components after multiplying by Q, so all generators appear as
    columns.
    """
    cols = []
    for _, rep in h.free:
        fc, _tc = h.class_coords(up.mat_vec(cone.q, rep))
        cols.append(fc)
    for _, _k, rep in h.torsion:
        fc, _tc = h.class_coords(up.mat_vec(cone.q, rep))
        cols.append(fc)
    return [[col[r] for col in cols] for r in range(len(h.free))]


def involutive_vs(cone: ConeComplex, h: GradedModule | None = None) -> tuple[int, int]:
    """(lower, upper) correction terms from the cone homology.

    The homology must have exactly two towers and the Q-action must
    saturate exactly one of them; both conditions are checked.
    """
    if h is None:
        h = cone_homology(cone)
    if len(h.free) != 2:
        raise ValueError("cone homology has %d towers, expected 2" % len(h.free))
    qf = _q_on_free(cone, h)
    s = up.smith_normal_form(qf)
    if s.rank != 1:
        raise ValueError("Q-action saturates %d towers, expected 1" % s.rank)
    gammas = [g for g, _rep in h.free]
    g2 = vector_grading([s.Linv[r][0] for r in range(2)], gammas)
    g1 = vector_grading([s.Linv[r][1] for r in range(2)], gammas)
    if g2 % 2 or (g1 - 1) % 2:
        raise ValueError("tower gradings have the wrong parities")
    return (-(g1 - 1) // 2, -g2 // 2)


EXTRA_DEPTH = 8  # U-powers of slack in the cap of brute_force_vs


def brute_force_vs(cone: ConeComplex) -> tuple[int, int]:
    """Correction terms by direct enumeration of homogeneous classes.

    Works entirely in summand coordinates of the cone homology.  A class
    never dies iff it keeps a free component after multiplying by U to
    the largest torsion order.  Membership of U^n x in the image of Q is
    upward closed in n because the image is a U-submodule, so a single
    test at a generous cap n = M decides both quantifiers up to M; the
    cap, the largest torsion order plus half the grading spread plus
    EXTRA_DEPTH, exceeds every U-power the finite homology can see.
    """
    h = cone_homology(cone)
    nf, nt = len(h.free), len(h.torsion)
    if nf != 2:
        raise ValueError("cone homology has %d towers, expected 2" % nf)
    gradings = [g for g, _ in h.free] + [g for g, _k, _ in h.torsion]
    orders = [None] * nf + [k for _g, k, _ in h.torsion]
    maxtors = max((k for _g, k, _ in h.torsion), default=0)
    spread = max(gradings) - min(gradings)
    cap = maxtors + spread // 2 + EXTRA_DEPTH

    # image of Q in summand coordinates, with torsion relations adjoined
    qcols = []
    for _, rep in h.free:
        fc, tc = h.class_coords(up.mat_vec(cone.q, rep))
        qcols.append(fc + tc)
    for _, _k, rep in h.torsion:
        fc, tc = h.class_coords(up.mat_vec(cone.q, rep))
        qcols.append(fc + tc)
    for j in range(nt):
        col = [0] * (nf + nt)
        col[nf + j] = up.mono(h.torsion[j][1])
        qcols.append(col)
    amat = [[col[r] for col in qcols] for r in range(nf + nt)]
    asnf = up.smith_normal_form(amat)

    def times_u(coords, n):
        out = []
        for l, x in enumerate(coords):
            y = up.mul(up.mono(n), x)
            if orders[l] is not None:
                y &= up.mono(orders[l]) - 1
            out.append(y)
        return out

    def never_dies(coords):
        return any(times_u(coords, maxtors)[:nf])

    def in_image(coords):
        return up.solve(amat, coords, asnf) is not None

    def classes_at(r):
        eligible = []
        for l, g in enumerate(gradings):
            k = g - r
            if k < 0 or k % 2:
                continue
            k //= 2
            if orders[l] is not None and k >= orders[l]:
                continue
            eligible.append((l, k))
        if len(eligible) > 16:
            raise ValueError("too many summands for brute-force enumeration")
        for mask in range(1, 1 << len(eligible)):
            coords = [0] * (nf + nt)
            for b, (l, k) in enumerate(eligible):
                if (mask >> b) & 1:
                    coords[l] = up.mono(k)
            yield coords

    def first_grading(qualifies):
        r = max(gradings)
        floor = min(gradings) - 2 * (cap + 2)
        while r >= floor:
            for x in classes_at(r):
                if qualifies(x):
                    return r
            r -= 1
        raise ValueError("no qualifying class found; cap too small")

    r_upper = first_grading(
        lambda x: never_dies(x) and in_image(times_u(x, cap))
    )
    r_lower = first_grading(
        lambda x: never_dies(x) and not in_image(times_u(x, cap))
    )
    if r_upper % 2 or (r_lower - 1) % 2:
        raise ValueError("extremal gradings have the wrong parities")
    return (-(r_lower - 1) // 2, -r_upper // 2)


def involutive_invariants(c: FilteredComplex, iota: Involution) -> tuple[int, int, int]:
    """(V0, lower V0, upper V0) of a complex with involution."""
    cone = build_cone(c, iota)
    lower, upper = involutive_vs(cone)
    return (v0(c), lower, upper)
