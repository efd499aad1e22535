"""Homology of free graded F2[U]-complexes and the classical outputs.

eliminate is the one elimination: sparse_homology, hfk_hat and
cone.cancel_units all run it.  It takes the differential as an exponent
map (one int a per entry, meaning U^a, as everywhere in cfku).  Each
step pivots on the entry U^a of lowest exponent in what remains; a unit
pivot (a = 0) cancels an acyclic piece, and a pivot with a > 0 splits
off a torsion summand F[U]/U^a.  Generators left with no arrows are the
towers.  eliminate checks the grading law M(t) - 2a = M(s) - 1 on every
entry; the law fixes every exponent, so it works on F2 supports and
reads the exponents off the gradings.  This is the structure theorem
for free graded complexes over F[U] run as an algorithm (the reduction
method of Kaczynski, Mischaikow and Mrozek, "Computational Homology").

sparse_homology runs it over all arrows and then, on F2 supports for the
same reason, checks d^2 = 0 (complexes.d_squared_support).  The
elimination keeps its inclusion and projection, so every summand comes
with an explicit cycle representative and a coordinate functional, both
sparse vectors {original index: exponent}.  The grading law fixes one
power of U per index, so a homogeneous vector is a monomial in every
coordinate, and any homogeneous cycle of the original complex, written
the same way, can be rewritten in summand coordinates (needed for the
image-of-Q tests in the involutive invariants).  The cycle check of
class_coords runs on the original differential, since the projection can
send a non-cycle to a cycle.  hfk_hat runs it on the unit arrows of the
i = 0 slice and counts the generators it keeps; cone.cancel_units runs
it with units_only, which stops after the unit pivots.

graded_homology is the dense front door, which no command calls: it
takes one square matrix of F2[U] polynomials, checks d^2 = 0 on it,
reads each entry as one exponent and calls sparse_homology.  A
non-monomial entry means the differential is not graded and raises
ValueError.
"""

from __future__ import annotations

import heapq
import logging
from collections import Counter, defaultdict
from dataclasses import dataclass

from . import upoly as up
from .complexes import (
    FilteredComplex,
    SparseMap,
    add_term,
    by_source,
    d_squared_support,
    subquotient,
)

log = logging.getLogger(__name__)

# (y, a, representative, functional) of one torsion piece F[U]/U^a, the
# last two as {original index: exponent}
Summand = tuple[int, int, dict[int, int], dict[int, int]]


def eliminate(
    diff: SparseMap, maslov: list[int], *, units_only: bool
) -> tuple[list[int], SparseMap, SparseMap, SparseMap, list[Summand]]:
    """Split pieces x -> U^a y off a differential by Gaussian elimination.

    diff is a differential on the n = len(maslov) generators, one
    exponent per entry, and every entry U^a from s to t must meet the
    grading law M(t) - 2a = M(s) - 1 with a >= 0, or ValueError names it.
    Each step takes the entry d[y, x] = U^a of lowest exponent in the
    whole remaining differential, ties broken by lowest source x, then
    lowest target y; with units_only only U^0 entries are taken.  In the
    basis y' = U^-a dx and s + U^-a d[y, s] x the piece x -> U^a y'
    splits off, and with the inclusion and projection

        i(z) = z + U^-a d[y, z] x        p(w) = w + w_y U^-a d[:, x]

    the rest carries d' = d + d[:, x] U^-a d[y, :].  Every new exponent is
    at least a, so the pivots come in nondecreasing order of a, and the
    U^0 pivots, which cancel acyclic pieces, come first.

    The gradings fix every exponent, which is read off them at the end,
    so only F2 supports are kept: columns and rows of d, columns of I and
    rows of P are sets of indices, sums are symmetric differences, and a
    pivot marks x and y gone instead of unlinking them.  The unit pivots
    need no heap: sources are scanned in increasing order, and at x the
    pivot is the lowest live target t with M(t) = M(x) - 1.  This is the
    heap's order: a unit pivot (x, y) makes a unit entry (s, t) only out
    of a unit entry (s, y), which (0, x, y) precedes, so s > x.  A heap
    orders the pivots with a > 0, built from what the scan leaves; every
    later exponent is at least the pivot's, so no unit entry comes back.

    Returns (keep, d', I, P, torsion): the surviving indices in increasing
    order, d' on positions in keep, the composite inclusion I with entries
    (original, kept), the composite projection P with entries (kept,
    original), and one (y, a, rep, functional) per pivot with a > 0, the
    summand F[U]/U^a on y' with representative I y' and coordinate
    functional row y of P, both {original: exponent}, as they stand at the
    pivot.  Without units_only no arrow survives, and the kept generators
    are the towers.
    """
    m, n = maslov, len(maslov)
    cols: defaultdict[int, set[int]] = defaultdict(set)  # s -> targets of d s
    rows: defaultdict[int, set[int]] = defaultdict(set)  # t -> sources into t
    for (t, s), a in diff.items():
        if a < 0 or m[t] - 2 * a != m[s] - 1:
            raise ValueError("entry U^%d from %d to %d breaks the grading law "
                             "M(t) - 2a = M(s) - 1, a >= 0" % (a, s, t))
        cols[s].add(t)
        rows[t].add(s)
    inc: dict[int, set[int]] = {}  # column k of I, once a pivot touches k
    proj: dict[int, set[int]] = {}  # row k of P, likewise
    gone: set[int] = set()  # eliminated indices
    pieces: list[tuple[int, int, set[int], set[int]]] = []  # Summand, as sets
    heap: list[tuple[int, int, int]] = []  # (a, s, t), once the scan is done

    def pivot(x: int, y: int, c: int) -> None:
        gone.update((x, y))
        dcol = cols.pop(x) - gone
        drow = rows.pop(y) - gone
        cols.pop(y, None)
        rows.pop(x, None)
        icol = inc.pop(x, None) or {x}
        prow = proj.pop(y, None) or {y}
        iy = inc.pop(y, None) or {y}
        proj.pop(x, None)
        if c:
            for t in dcol:
                iy ^= inc.get(t) or {t}
            pieces.append((y, c, iy, prow))
        for s in drow:
            col = cols[s]
            if c:
                for t in dcol - col:
                    heapq.heappush(heap, ((m[t] - m[s] + 1) // 2, s, t))
            col ^= dcol
            inc.setdefault(s, {s}).symmetric_difference_update(icol)
        for t in dcol:
            proj.setdefault(t, {t}).symmetric_difference_update(prow)
            if drow:
                rows[t] ^= drow

    for x in sorted(cols):
        if x not in gone:
            unit, y = m[x] - 1, n
            for t in cols[x]:
                if t < y and m[t] == unit and t not in gone:
                    y = t
            if y < n:
                pivot(x, y, 0)
    if not units_only:
        heap += [((m[t] - m[s] + 1) // 2, s, t) for s, col in cols.items() for t in col - gone]
        heapq.heapify(heap)
    while heap:
        c, x, y = heapq.heappop(heap)
        if x not in gone and y not in gone and y in cols[x]:
            pivot(x, y, c)

    keep = [k for k in range(n) if k not in gone]
    slot = {k: r for r, k in enumerate(keep)}
    reduced = {
        (slot[t], slot[s]): (m[t] - m[s] + 1) // 2
        for s in keep for t in cols.get(s, ()) if t not in gone
    }
    i_map = {(o, slot[k]): (m[o] - m[k]) // 2 for k in keep for o in inc.get(k, (k,))}
    p_map = {(slot[k], o): (m[k] - m[o]) // 2 for k in keep for o in proj.get(k, (k,))}
    torsion = [
        (y, c, {o: (m[o] - m[y]) // 2 for o in rep}, {o: (m[y] - m[o]) // 2 for o in f})
        for y, c, rep, f in pieces
    ]
    return keep, reduced, i_map, p_map, torsion


def _apply(cols: dict[int, list[tuple[int, int]]], v: dict[int, int]) -> dict[int, int]:
    """The map with columns cols (by_source) applied to the vector v
    {index: exponent}, reading only the columns of v's support.  Sums run
    through add_term, as the image of a homogeneous vector is homogeneous."""
    out: dict[int, int] = {}
    for s, x in v.items():
        for t, e in cols.get(s, ()):
            add_term(out, t, x + e)
    return out


@dataclass
class GradedModule:
    """H = F[U]^t + sum of F[U]/U^k with graded generators.

    free: list of (grading, representative); torsion: list of
    (grading, order_exp, representative).  A representative is a
    homogeneous cycle {original index: exponent} in the basis of the
    underlying complex, exactly as eliminate returns it.
    """

    free: list[tuple[int, dict[int, int]]]
    torsion: list[tuple[int, int, dict[int, int]]]
    # for coordinates of cycles: the differential by source (by_source)
    # and one functional {original: exponent} per summand, towers first
    _columns: dict[int, list[tuple[int, int]]]
    _functionals: list[dict[int, int]]

    def class_coords(self, x: dict[int, int]) -> tuple[list[int], list[int]]:
        """Coordinates of the class [x] of the vector x, {index: exponent},
        as (free coords, torsion coords), each a polynomial bitmask.

        Torsion coords are reduced mod the summand order.  Raises if x is
        not a cycle, or if d x sums two different powers at one index.
        """
        if _apply(self._columns, x):
            raise ValueError("vector is not a cycle")
        coords = []
        for f in self._functionals:
            acc = 0
            for o, e in f.items():
                if o in x:
                    acc ^= 1 << (x[o] + e)
            coords.append(acc)
        nf = len(self.free)
        orders = [k for _g, k, _rep in self.torsion]
        return coords[:nf], [c & ((1 << k) - 1) for c, k in zip(coords[nf:], orders)]


def sparse_homology(diff: SparseMap, maslov: list[int]) -> GradedModule:
    """Homology of the differential diff on len(maslov) generators, d^2=0.

    diff holds one exponent per entry.  One elimination over all arrows
    splits the complex into towers and torsion pieces; representatives
    and functionals are the {original index: exponent} vectors it returns.
    eliminate checks the grading law on every entry, and once it has,
    d^2 = 0 is checked on F2 supports (complexes.d_squared_support)
    before anything is read off the elimination.
    """
    n = len(maslov)
    keep, _reduced, inc, proj, pieces = eliminate(diff, maslov, units_only=False)
    if d_squared_support(diff):
        raise ValueError("differential does not square to zero")
    towers: list[dict[int, int]] = [{} for _ in keep]
    functionals: list[dict[int, int]] = [{} for _ in keep]
    for (o, k), e in inc.items():
        towers[k][o] = e
    for (k, o), e in proj.items():
        functionals[k][o] = e
    free = [(maslov[k], rep) for k, rep in zip(keep, towers)]
    torsion = [(maslov[y], a, rep) for y, a, rep, _f in pieces]
    functionals += [f for _y, _a, _rep, f in pieces]
    log.debug(
        "homology: %d generators, %d unit arrows cancelled; "
        "%d towers, %d torsion summands (max order %d)",
        n, (n - len(keep)) // 2 - len(pieces), len(free), len(torsion),
        max((a for _y, a, _rep, _f in pieces), default=0),
    )
    return GradedModule(free, torsion, _columns=by_source(diff), _functionals=functionals)


def graded_homology(d: list[list[int]], maslov: list[int]) -> GradedModule:
    """Homology of an F2[U]-complex given by one dense square matrix d.

    The dense front door to sparse_homology: checks d^2 = 0 on the
    matrix, reads every entry as one exponent (a non-monomial entry
    raises ValueError) and hands the exponent map on.
    """
    dd = up.mat_mul(d, d)
    if any(any(row) for row in dd):
        raise ValueError("differential does not square to zero")
    diff: SparseMap = {}
    for t, row in enumerate(d):
        for s, p in enumerate(row):
            if p:
                if p & (p - 1):
                    raise ValueError(
                        "entry (%d, %d) is not a monomial: differential is not graded"
                        % (t, s)
                    )
                diff[(t, s)] = up.deg(p)
    return sparse_homology(diff, maslov)


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
    """V0 from the sparse homology of the whole, uncancelled A0-: the
    oracle for the V0 that cone.involutive_invariants reads after
    cancellation."""
    a0 = subquotient(c)
    return v0_from_homology(sparse_homology(a0.diff, a0.maslov))


# ---------------------------------------------------------------------------
# Knot Floer homology of the associated graded object


def hfk_hat(c: FilteredComplex) -> dict[tuple[int, int], int]:
    """Bigraded ranks: (alexander w, maslov k) -> rank of H(C{i=0, j=w}).

    Read straight off c: the i = 0 slice holds U^i x for each generator
    x, on the diagonal j - i in grading M - 2i, and an arrow U^a from s
    to t survives the quotient by C{i<0} when i_t = i_s + a.  Only the
    arrows whose ends share a diagonal, those of the direct summands
    C{i=0, j=w}, are kept.  The grading law of c makes each of them a
    unit arrow on the slice gradings, so eliminate cancels them all, and
    the generators it keeps are a basis of the homology.
    """
    ci = c.i
    where = [(j - i, m - 2 * i) for m, i, j in zip(c.maslov, ci, c.j)]
    arrows: SparseMap = {
        (t, s): 0
        for (t, s), a in c.diff.items()
        if ci[t] == ci[s] + a and where[t][0] == where[s][0]
    }
    keep = eliminate(arrows, [k for _w, k in where], units_only=False)[0]
    return dict(sorted(Counter(where[k] for k in keep).items()))


def alexander_poly(table: dict[tuple[int, int], int]) -> dict[int, int]:
    """Graded Euler characteristic of an hfk_hat table, exponent ->
    coefficient, in increasing exponent."""
    out: dict[int, int] = {}
    get = out.get
    for (w, k), rank in table.items():
        out[w] = get(w, 0) + (-rank if k & 1 else rank)
    return {w: out[w] for w in sorted(out) if out[w]}


def genus_detect(table: dict[tuple[int, int], int]) -> int:
    """Top Alexander grading of an hfk_hat table: the first grading of its
    greatest (alexander, maslov) key."""
    return max(table)[0]
