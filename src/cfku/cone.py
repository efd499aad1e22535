"""Mapping cone of 1 + iota on A0- and the involutive correction terms.

The cone is a free F2[U]-complex on two copies of an A0- basis, written
{x} and {Qx}, with differential d + Q(1 + iota) and gradings shifted so
that Q has degree -1.  ConeComplex stores the differential and Q as
exponent maps, one int a per entry meaning U^a, like every map in cfku;
Q is the index shift x_i -> Qx_i, and homology.sparse_homology takes the
differential as it is.  The cone homology carries exactly two infinite
towers; the lower correction term reads off the tower surviving the
image of the Q-action, the upper one the quotient tower.

cancel_units and build_cone write iota on the A0- basis with
complexes.restrict_to_a0, the loop that gives A0- its differential.
involutive_invariants reads every invariant from the cancelled A0-:
cancel_units removes each unit (U^0) arrow of A0- through the Gaussian
elimination that every homology also runs (homology.eliminate on the A0-
gradings), stopped after its scan of the unit pivots, and carries iota
along as P iota I, with I and P the inclusion and projection of that
elimination.  Only the unit pivots keep P iota I an iota-homotopy
equivalence, so this gives a complex with involution that is
iota-homotopy equivalent to (A0-, iota) and has the same V0, lower V0
and upper V0.  build_cone is the unreduced cone on the whole A0- basis;
it is kept as the oracle that the reduced path is tested against and is
what `cfku show --which cone` renders.  Its homology, like every
homology, comes from the same elimination run over all arrows.

Two extractors read the cone, independent in how they read it, and share
its one homology and the Q-coordinates on it: a ConeComplex is frozen
and takes its homology, d^2 check included, once, on the first call to
cone_homology, and the coordinates once, on the first reading.  The
Q-coordinates are those of Q applied to each homology representative, a
sparse vector {index: exponent} like the representative, one bitmask
polynomial per summand.  involutive_vs reads the tower that the image of
Q saturates directly off the Q-coordinates on the two towers, with no
Smith normal form.  brute_force_vs enumerates homogeneous classes
grading by grading and applies the definitions literally; it is the
oracle the fast path is tested against.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from functools import cached_property

from . import upoly as up
from .complexes import (
    FilteredComplex,
    SparseMap,
    SubquotientComplex,
    _compose,
    add_term,
    by_source,
    d_squared_support,
    restrict_to_a0,
    subquotient,
)
from .homology import (
    GradedModule,
    _apply,
    eliminate,
    sparse_homology,
    v0_from_homology,
)
from .involution import Involution

log = logging.getLogger(__name__)


def cancel_units(c: FilteredComplex, iota: Involution) -> tuple[SubquotientComplex, SparseMap]:
    """A0- with every unit arrow cancelled, and iota carried along.

    homology.eliminate, stopped after the unit pivots, removes the unit
    arrows of A0- and gives the inclusion I and projection P of the
    homotopy equivalence; iota becomes iota' = P iota I.  The result
    keeps the surviving entries of the A0- basis.  iota' squares to the
    Sarkar map only up to homotopy, so it is not an Involution; instead
    the grading law of every iota' entry, d'^2 = 0 (on F2 supports,
    complexes.d_squared_support, as eliminate reads every d' exponent
    off the gradings) and iota' d' = d' iota' are checked, and any
    failure raises ValueError.
    """
    a0 = subquotient(c)
    keep, diff, inc, proj, _torsion = eliminate(a0.diff, a0.maslov, units_only=True)
    fmap = _compose(proj, _compose(restrict_to_a0(a0, iota.matrix, "iota"), inc))
    maslov = [a0.maslov[k] for k in keep]
    problems = [
        "iota' entry U^%d from %d to %d breaks the grading law" % (a, s, t)
        for (t, s), a in fmap.items()
        if maslov[t] - 2 * a != maslov[s]
    ]
    if not problems:
        if d_squared_support(diff):
            problems.append("d'^2 != 0")
        if _compose(diff, fmap) != _compose(fmap, diff):
            problems.append("iota' does not commute with d'")
    if problems:
        raise ValueError("cancelled A0- is invalid: %s" % problems)
    reduced = replace(a0, basis=[a0.basis[k] for k in keep], maslov=maslov, diff=diff)
    return reduced, fmap


@dataclass(frozen=True)
class ConeComplex:
    """Cone of 1 + iota: basis x_0..x_{n-1}, Qx_0..Qx_{n-1}.

    diff and q are exponent maps, one int a per entry meaning U^a, on
    the 2n generators.  q is the Q-action, the index shift x_i -> Qx_i:
    {(n + i, i): 0}.  a0 is the complex whose cone this is, which labels
    reads; a cone given directly has none.  The fields are frozen so that
    the homology, taken once, cannot go stale.
    """

    maslov: list[int]
    diff: SparseMap
    q: SparseMap
    a0: SubquotientComplex | None = None

    @cached_property
    def labels(self) -> list[str]:
        """The names of the x_k, then of the Qx_k, formatted when first read."""
        labels = self.a0.labels()
        return labels + ["Q " + lab for lab in labels]

    @cached_property
    def homology(self) -> GradedModule:
        """H of the cone, d^2 check included; stored only if it succeeds."""
        return sparse_homology(self.diff, self.maslov)

    @cached_property
    def q_coords(self) -> tuple[list[list[int]], list[list[int]]]:
        """Summand coordinates of Q applied to every homology generator.

        (free, torsion): the free and the torsion coordinates of Q rep,
        one column per generator, towers first.  Torsion classes can
        have free components after multiplying by Q, so every generator
        appears.  Like the homology, taken once and shared by both
        extractors, which only read it.
        """
        h = self.homology
        reps = [rep for _, rep in h.free] + [rep for _, _, rep in h.torsion]
        q = by_source(self.q)
        coords = [h.class_coords(_apply(q, rep)) for rep in reps]
        return [fc for fc, _tc in coords], [tc for _fc, tc in coords]


def _assemble_cone(a0: SubquotientComplex, f: SparseMap) -> ConeComplex:
    """Cone of 1 + f on the complex a0, f one exponent per entry.

    The arrows x_i -> Qx_i of the identity and those of f are summed
    over F2, so a unit diagonal entry of f cancels its identity arrow.
    """
    n = len(a0.basis)
    maslov = [m + 1 for m in a0.maslov] + list(a0.maslov)
    diff: SparseMap = {}
    for (t, s), e in a0.diff.items():
        diff[(t, s)] = diff[(n + t, n + s)] = e
    q: SparseMap = {(n + i, i): 0 for i in range(n)}
    diff.update(q)  # Q(1 + f): its identity part is q itself
    for (t, s), e in f.items():
        add_term(diff, (n + t, s), e)
    return ConeComplex(maslov, diff, q, a0)


def build_cone(c: FilteredComplex, iota: Involution) -> ConeComplex:
    """The unreduced cone on the whole A0- basis: the oracle for the
    cone of the cancelled A0-."""
    a0 = subquotient(c)
    return _assemble_cone(a0, restrict_to_a0(a0, iota.matrix, "iota"))


def cone_homology(cone: ConeComplex) -> GradedModule:
    """The cone's homology, shared by every reading of the same cone."""
    return cone.homology


def involutive_vs(cone: ConeComplex) -> tuple[int, int]:
    """(lower, upper) correction terms from the cone homology.

    The homology must have exactly two towers, and the image of Q in
    them must have rank exactly 1: some column (a, b) of Q's tower
    coordinates is nonzero, and every column (c, d) is proportional to
    it, a d = b c.  Dividing (a, b) by the largest power of U that
    divides both entries gives the primitive vector of the tower that
    the image saturates: one entry is U^0, and g2 is the grading of that
    tower.  The gradings of any homogeneous basis of F[U]^2 are the same
    multiset, so the other tower sits in g1 = gamma_0 + gamma_1 - g2.  A
    failed check, a term of (a, b) off the grading g2, or g2 odd or g1
    even, raises ValueError.
    """
    h = cone_homology(cone)
    if len(h.free) != 2:
        raise ValueError("cone homology has %d towers, expected 2" % len(h.free))
    free_cols, _torsion_cols = cone.q_coords
    nonzero = [col for col in free_cols if any(col)]
    rank = 0
    if nonzero:
        a, b = nonzero[0]
        rank = 1 if all(up.mul(a, d) == up.mul(b, c) for c, d in nonzero) else 2
    if rank != 1:
        raise ValueError("Q-action saturates %d towers, expected 1" % rank)
    shift = min((p & -p).bit_length() - 1 for p in (a, b) if p)
    a, b = a >> shift, b >> shift
    gammas = [g for g, _rep in h.free]
    g2 = gammas[0] if a & 1 else gammas[1]
    terms = {
        g - 2 * k for g, p in zip(gammas, (a, b)) for k in range(p.bit_length()) if p >> k & 1
    }
    if terms != {g2}:
        raise ValueError("Q-image of the towers is not homogeneous")
    g1 = sum(gammas) - g2
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
    qcols = [fc + tc for fc, tc in zip(*cone.q_coords)]
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
    """(V0, lower V0, upper V0) of a complex with involution.

    V0 is read off H(A0') and the correction terms off the cone of
    (A0', iota'), where A0' and iota' come from cancel_units.
    """
    a0, f = cancel_units(c, iota)
    cone = _assemble_cone(a0, f)
    log.debug(
        "A0-: %d generators, %d after cancellation; cone: %d generators",
        len(c.maslov), len(a0.basis), len(cone.maslov),
    )
    return (v0_from_homology(sparse_homology(a0.diff, a0.maslov)), *involutive_vs(cone))
