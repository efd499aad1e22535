"""Graded homology over F2[U] and the classical knot outputs.

Small decompositions are checked against hand values, among them a
torsion pivot U^1 whose elimination fills in a new entry; random
staircases exercise the representative and coordinate machinery (reps
are cycles, coordinates of a rep form a unit vector, torsion reps die
at their order).  sparse_homology, one elimination over all arrows, is
checked up to isomorphism against a reference made of two Smith normal
forms on the whole dense matrix (_two_pass_reference, which takes the
inverse transforms from test_upoly._inverse and converts its dense
representatives to {index: exponent}, the form sparse_homology returns
them in), and its entry points
cone_homology and sparse_homology on A0- against the dense front door
graded_homology, over the worked examples and the pretzel cones.
eliminate must return exactly the tuple of _reference_eliminate, a
heap-based elimination on exponent dicts that takes no gradings, on
every one of those differentials and on random graded maps.  The
bigraded rank tables for the three small knots are the standard
published values.  hfk_hat, the same elimination on the unit arrows of
the i = 0 slice, is checked against _hfk_hat_per_diagonal, F2 ranks of
each slice's boundary blocks, on the worked examples, the pretzel
complexes, random staircases and random two-level slices, where
elimination fills in.
"""

import functools
import heapq
import logging
import re
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from cfku import upoly as up
from cfku.complexes import (
    Generator,
    add_shifted,
    build_box,
    build_staircase,
    direct_sum,
    dualize,
    figure_eight_complex,
    from_gens,
    left_trefoil_complex,
    relabel,
    right_trefoil_complex,
    subquotient,
    unknot_complex,
)
from cfku.cone import build_cone, cone_homology
from cfku.homology import (
    alexander_poly,
    eliminate,
    genus_detect,
    graded_homology,
    hfk_hat,
    sparse_homology,
    v0,
)
from cfku.involution import (
    dual_involution,
    figure_eight_involution,
    identity_involution,
    standard_staircase_involution,
)
from cfku.pretzel import (
    PretzelParams,
    full_complex,
    full_involution,
    model_complex,
    model_involution_for,
)
from test_upoly import _inverse

steps_strategy = st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=5).map(tuple)


def _sparse_vector(vec):
    """The {index: exponent} vector of a dense vector of monomials."""
    assert all(p & (p - 1) == 0 for p in vec)
    return {o: up.deg(p) for o, p in enumerate(vec) if p}


def _dense_vector(vec, n):
    """The dense vector, n entries, of {index: exponent}."""
    return [up.mono(vec[o]) if o in vec else 0 for o in range(n)]


def _gradings(vec, maslov):
    """The set of gradings of the terms of {index: exponent}."""
    return {maslov[o] - 2 * e for o, e in vec.items()}


def test_homology_zero_differential():
    h = graded_homology([[0, 0], [0, 0]], [3, 8])
    assert sorted(g for g, _ in h.free) == [3, 8]
    assert h.torsion == []


def test_homology_single_torsion():
    # d(x) = U^2 y gives F[U]/U^2 on [y]; with no unit arrow nothing is
    # cancelled, and the output is exactly that of the two dense passes
    d, maslov = [[0, up.mono(2)], [0, 0]], [5, 2]
    h = graded_homology(d, maslov)
    assert (h.free, h.torsion) == ([], [(5, 2, {0: 0})])
    assert (h.free, h.torsion) == _two_pass_reference(d, maslov)
    rep = h.torsion[0][2]
    assert h.class_coords({o: e + 2 for o, e in rep.items()})[1] == [0]


def test_homology_torsion_pivot_fills_in():
    # d(a) = U b + U^2 c: the pivot U^1 from a to b splits off F[U]/U on
    # b + U c, and row b of the projection gives c the coordinate U of b
    h = sparse_homology({(1, 0): 1, (2, 0): 2}, [0, 1, 3])
    assert h.free == [(3, {2: 0})]
    assert h.torsion == [(1, 1, {1: 0, 2: 1})]
    assert h.class_coords({1: 0}) == ([0b10], [1])
    # d(x) = U y + U t, d(s) = U y: the pivot from x to y leaves the new
    # arrow s -> U t, a second F[U]/U, and y = (y + t) + t
    h = sparse_homology({(2, 0): 1, (3, 0): 1, (2, 1): 1}, [0, 0, 1, 1])
    assert h.free == []
    assert h.torsion == [(1, 1, {2: 0, 3: 0}), (1, 1, {3: 0})]
    assert h.class_coords({2: 0}) == ([], [1, 1])


def _reference_eliminate(diff, n, *, units_only):
    """eliminate as it was before it read exponents off the gradings.

    One heap orders every pivot by (a, x, y), the maps are exponent
    dicts {index: a}, sums go through complexes.add_shifted, and a pivot
    unlinks every entry of x and y.  It takes no gradings, and
    eliminate(diff, maslov, ...) must return exactly its tuple.
    """
    cols = defaultdict(dict)  # s -> {t: a}
    rows = defaultdict(dict)  # t -> {s: a}
    for (t, s), a in diff.items():
        cols[s][t] = rows[t][s] = a
    inc = {}  # column k of I: {original: a}
    proj = {}  # row k of P: {original: a}
    gone = set()  # eliminated indices
    torsion = []
    heap = [(a, s, t) for (t, s), a in diff.items() if a == 0 or not units_only]
    heapq.heapify(heap)
    while heap:
        c, x, y = heapq.heappop(heap)
        if x in gone or cols[x].get(y) != c:
            continue  # eliminated or changed since it was queued
        gone.update((x, y))
        dcol = {t: a - c for t, a in cols[x].items() if t != x and t != y}
        drow = [(s, b - c) for s, b in rows[y].items() if s != x and s != y]
        icol = inc.pop(x, None) or {x: 0}
        iy = inc.pop(y, None) or {y: 0}
        prow = proj.pop(y, None) or {y: 0}
        proj.pop(x, None)
        if c:
            rep = dict(iy)
            for t, a in dcol.items():
                add_shifted(rep, inc.get(t) or {t: 0}, a)
            torsion.append((y, c, rep, prow))
        for k in (x, y):
            for t in cols.pop(k, {}):
                del rows[t][k]
            for s in rows.pop(k, {}):
                del cols[s][k]
        for s, b in drow:
            col = cols[s]
            add_shifted(col, dcol, b + c)
            for t in dcol:
                e = col.get(t)
                if e is None:
                    del rows[t][s]
                else:
                    rows[t][s] = e
                    if e == 0 or not units_only:
                        heapq.heappush(heap, (e, s, t))
            add_shifted(inc.setdefault(s, {s: 0}), icol, b)
        for t, a in dcol.items():
            add_shifted(proj.setdefault(t, {t: 0}), prow, a)

    keep = [k for k in range(n) if k not in gone]
    slot = {k: r for r, k in enumerate(keep)}
    reduced = {(slot[t], slot[s]): a for s in keep for t, a in cols[s].items()}
    i_map = {(o, slot[k]): e for k in keep for o, e in inc.get(k, {k: 0}).items()}
    p_map = {(slot[k], o): e for k in keep for o, e in proj.get(k, {k: 0}).items()}
    return keep, reduced, i_map, p_map, torsion


def test_eliminate_exact_outputs():
    # d(g0) = g1 + g5, d(g2) = U g3 + U g1, and g4 alone; gradings
    # 1, 0, -1, 0, 0, 0.  The unit pivot g0 -> g1 turns g2 -> U g1 into
    # g2 -> U g5, with I g2' = g2 + U g0 and P g5 = g5 + g1.  The full
    # elimination then pivots on g2 -> U g3 and splits off F[U]/U on
    # g3 + g5; g4 and g5 are the towers.  No pivot touches g4, so its
    # column of I and row of P are the identity entry.
    d = {(1, 0): 0, (5, 0): 0, (3, 2): 1, (1, 2): 1}
    assert eliminate(d, [1, 0, -1, 0, 0, 0], units_only=True) == (
        [2, 3, 4, 5],
        {(1, 0): 1, (3, 0): 1},
        {(2, 0): 0, (0, 0): 1, (3, 1): 0, (4, 2): 0, (5, 3): 0},
        {(0, 2): 0, (1, 3): 0, (2, 4): 0, (3, 5): 0, (3, 1): 0},
        [],
    )
    keep, reduced, inc, proj, torsion = eliminate(d, [1, 0, -1, 0, 0, 0], units_only=False)
    assert (keep, reduced) == ([4, 5], {})
    assert inc == {(4, 0): 0, (5, 1): 0}
    assert proj == {(0, 4): 0, (1, 5): 0, (1, 1): 0, (1, 3): 0}
    assert torsion == [(3, 1, {3: 0, 5: 0}, {3: 0})]
    assert [(o, e) for (o, k), e in inc.items() if k == keep.index(4)] == [(4, 0)]
    assert [(o, e) for (k, o), e in proj.items() if k == keep.index(4)] == [(4, 0)]


@st.composite
def graded_maps(draw):
    """(diff, maslov): up to 12 generators with gradings in -4..4 and any
    subset of the entries U^a, a = (M(t) - M(s) + 1) / 2 >= 0, that the
    grading law allows; d^2 need not vanish."""
    maslov = draw(st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=12))
    allowed = {
        (t, s): (mt - ms + 1) // 2
        for s, ms in enumerate(maslov)
        for t, mt in enumerate(maslov)
        if (mt - ms + 1) % 2 == 0 and mt - ms + 1 >= 0
    }
    chosen = draw(st.sets(st.sampled_from(sorted(allowed)))) if allowed else set()
    return {key: allowed[key] for key in chosen}, maslov


def _sparse(d):
    """The exponent map of a dense matrix of monomials."""
    return {(t, s): up.deg(p) for t, row in enumerate(d) for s, p in enumerate(row) if p}


def test_eliminate_matches_reference_on_cancellation_inputs():
    for d, maslov, _h in _cancellation_inputs():
        diff = _sparse(d)
        for units_only in (True, False):
            assert eliminate(diff, maslov, units_only=units_only) == _reference_eliminate(
                diff, len(maslov), units_only=units_only
            )


@settings(max_examples=300, deadline=None)
@given(graded_maps(), st.booleans())
def test_eliminate_matches_reference_on_graded_maps(case, units_only):
    diff, maslov = case
    assert eliminate(diff, maslov, units_only=units_only) == _reference_eliminate(
        diff, len(maslov), units_only=units_only
    )


def test_eliminate_rejects_the_grading_law():
    # U^1 from g0 to g1 on gradings 0, 0: M(t) - 2a = -2, M(s) - 1 = -1
    law = r"entry U\^1 from 0 to 1 breaks the grading law M\(t\) - 2a = M\(s\) - 1"
    for units_only in (True, False):
        with pytest.raises(ValueError, match=law):
            eliminate({(1, 0): 1}, [0, 0], units_only=units_only)
    with pytest.raises(ValueError, match=law):
        sparse_homology({(1, 0): 1}, [0, 0])
    # a negative power is not a map over F2[U], whatever the gradings
    with pytest.raises(ValueError, match=r"U\^-1 from 0 to 1"):
        eliminate({(1, 0): -1}, [3, 0], units_only=False)


def test_homology_rejects_d_squared():
    with pytest.raises(ValueError):
        graded_homology([[0, 1], [1, 0]], [0, 1])
    # x2 -> x1 -> x0, both unit arrows: d^2 x2 = x0
    with pytest.raises(ValueError, match="square to zero"):
        sparse_homology({(1, 0): 0, (2, 1): 0}, [2, 1, 0])


def test_homology_rejects_ungraded():
    # d(x) = (1 + U) y squares to zero but is not a graded differential
    with pytest.raises(ValueError, match="not graded"):
        graded_homology([[0, up.mono(0) ^ up.mono(1)], [0, 0]], [0, 1])


def test_homology_not_a_cycle():
    h = graded_homology([[0, up.mono(1)], [0, 0]], [1, 0])
    with pytest.raises(ValueError):
        h.class_coords({1: 0})


def test_class_coords_rejects_two_powers_at_one_index():
    # d(x) = U a and d(y) = U^2 a: the vector x + y, in gradings -1 and
    # -3, is not homogeneous, and d(x + y) sums U and U^2 at a
    h = graded_homology([[0, up.mono(1), up.mono(2)], [0, 0, 0], [0, 0, 0]], [0, -1, -3])
    with pytest.raises(ValueError, match=re.escape("entry 0 sums U^1 and U^2")):
        h.class_coords({1: 0, 2: 0})


def _two_pass_reference(d, maslov):
    """Reference decomposition: both Smith normal forms on the whole d.

    Returns (free, torsion) as graded_homology does, with no cancellation,
    the dense representatives converted to {index: exponent}.
    """
    n = len(d)
    s1 = up.smith_normal_form(d)
    rho = s1.rank
    kernel_cols = [[s1.R[i][k] for k in range(rho, n)] for i in range(n)]
    ri_li = up.mat_mul(_inverse(s1.R), _inverse(s1.L))
    rel = [
        [up.mul(s1.d[k], ri_li[rho + r][k]) for k in range(rho)]
        for r in range(n - rho)
    ]
    s2 = up.smith_normal_form(rel)
    l2inv = _inverse(s2.L)
    free, torsion = [], []
    dprime = list(s2.d) + [0] * (n - rho - len(s2.d))
    for r in range(n - rho):
        if dprime[r] == 1:
            continue
        rep = _sparse_vector(up.mat_vec(kernel_cols, [l2inv[i][r] for i in range(n - rho)]))
        (grading,) = _gradings(rep, maslov)
        if dprime[r] == 0:
            free.append((grading, rep))
        else:
            torsion.append((grading, up.deg(dprime[r]), rep))
    return free, torsion


def _worked_examples():
    out = []
    for c in (right_trefoil_complex(), left_trefoil_complex()):
        relabel(c, {"a": "z0", "b": "z1_1", "c": "z1_2"})
        out.append((c, standard_staircase_involution(c)))
    fe = figure_eight_complex()
    out.append((fe, figure_eight_involution(fe)))
    u = unknot_complex()
    out.append((u, identity_involution(u)))
    return out


def _dense(diff, n):
    """The dense n x n matrix of an exponent map."""
    d = up.mat_zero(n, n)
    for (t, s), e in diff.items():
        d[t][s] = up.mono(e)
    return d


@functools.cache
def _cancellation_inputs():
    """(d, maslov, h) of build_cone and of A0- for the worked examples,
    the model complex of every odd pair with m <= 21 and every full
    complex whose cone has at most 60 generators, each also dualized: d
    the dense matrix of the differential, h the homology from the sparse
    entry point, cone_homology or sparse_homology."""
    pairs = []
    for m in range(3, 22, 2):
        for n in range(3, m + 1, 2):
            params = PretzelParams(m, n)
            mc = model_complex(params)
            pairs.append((mc, model_involution_for(params, mc)))
            if 2 * (4 + (m - 2) * (n - 2)) <= 60:
                fc = full_complex(params)
                pairs.append((fc, full_involution(params, fc)))
    cases = _worked_examples()
    for c, iota in pairs:
        d = dualize(c)
        cases += [(c, iota), (d, dual_involution(iota, d))]
    inputs = []
    for c, iota in cases:
        cone = build_cone(c, iota)
        a0 = subquotient(c)
        inputs += [
            (_dense(cone.diff, len(cone.maslov)), cone.maslov, cone_homology(cone)),
            (_dense(a0.diff, len(a0.maslov)), a0.maslov, sparse_homology(a0.diff, a0.maslov)),
        ]
    return inputs


def test_sparse_entry_points_match_dense_graded_homology():
    inputs = _cancellation_inputs()
    assert len(inputs) == 4 * (55 + 14) + 8
    for d, maslov, h in inputs:
        dense = graded_homology(d, maslov)
        assert (h.free, h.torsion) == (dense.free, dense.torsion)
        reps = [rep for _, rep in h.free] + [rep for _, _, rep in h.torsion]
        for x in reps + [_sparse_vector(col) for col in zip(*d)]:
            assert h.class_coords(x) == dense.class_coords(x)


def test_cancelled_homology_matches_two_pass_reference():
    inputs = _cancellation_inputs()
    assert len(inputs) == 4 * (55 + 14) + 8
    for d, maslov, h in inputs:
        free, torsion = _two_pass_reference(d, maslov)
        assert sorted(g for g, _ in h.free) == sorted(g for g, _ in free)
        assert sorted((g, k) for g, k, _ in h.torsion) == sorted(
            (g, k) for g, k, _ in torsion
        )
        summands = [(g, rep) for g, rep in h.free] + [(g, rep) for g, _k, rep in h.torsion]
        for pos, (g, rep) in enumerate(summands):
            assert not any(up.mat_vec(d, _dense_vector(rep, len(d))))
            assert _gradings(rep, maslov) == {g}
            unit = [1 if i == pos else 0 for i in range(len(summands))]
            assert sum(h.class_coords(rep), []) == unit
        # every boundary, with or without parts on cancelled generators,
        # is the zero class
        for col in zip(*d):
            assert not any(sum(h.class_coords(_sparse_vector(col)), []))


def test_cancelled_unit_arrow_is_acyclic():
    # one unit arrow from x (grading 1) to y (grading 0)
    h = graded_homology([[0, 1], [0, 0]], [0, 1])
    assert (h.free, h.torsion) == ([], [])
    assert h.class_coords({}) == ([], [])
    assert h.class_coords({0: 0}) == ([], [])  # y is a boundary
    with pytest.raises(ValueError, match="not a cycle"):
        h.class_coords({1: 0})  # x, the source of the cancelled arrow


def test_homology_logs_cancellation_sizes(caplog):
    c, iota = _worked_examples()[1]  # left trefoil
    cone = build_cone(c, iota)
    with caplog.at_level(logging.DEBUG, logger="cfku.homology"):
        cone_homology(cone)
    assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
        (
            "cfku.homology",
            "DEBUG",
            "homology: 6 generators, 1 unit arrows cancelled; "
            "2 towers, 1 torsion summands (max order 1)",
        )
    ]


def test_v0_values():
    assert v0(right_trefoil_complex()) == 1
    assert v0(left_trefoil_complex()) == 0
    assert v0(figure_eight_complex()) == 0
    assert v0(unknot_complex()) == 0


def test_trefoil_a0_decomposition():
    a0 = subquotient(right_trefoil_complex())
    h = sparse_homology(a0.diff, a0.maslov)
    assert [g for g, _ in h.free] == [-2]
    assert h.torsion == []


def test_localized_rank():
    # rank over F2[U, U^-1] of the homology of d is n - 2 rank(d)
    sq = subquotient(build_staircase("negative", (1, 2, 1, 1)))
    d = _dense(sq.diff, len(sq.basis))
    assert len(d) - 2 * up.smith_normal_form(d).rank == 1


def test_induced_identity():
    # the identity sends each summand generator to its own unit vector
    a0 = subquotient(right_trefoil_complex())
    h = sparse_homology(a0.diff, a0.maslov)
    reps = [rep for _, rep in h.free] + [rep for _, _, rep in h.torsion]
    coords = [sum(h.class_coords(rep), []) for rep in reps]
    assert coords == up.mat_identity(len(reps))


def test_hfk_trefoils():
    assert hfk_hat(right_trefoil_complex()) == {(1, 0): 1, (0, -1): 1, (-1, -2): 1}
    assert hfk_hat(left_trefoil_complex()) == {(1, 2): 1, (0, 1): 1, (-1, 0): 1}


def test_hfk_figure_eight():
    assert hfk_hat(figure_eight_complex()) == {(1, 1): 1, (0, 0): 3, (-1, -1): 1}


def _i0_slice(c, w):
    """(maslov, diff) of the direct summand C{i=0, j=w} of C{i<=0}/C{i<0}:
    U^i x for every generator x on the diagonal j - i = w, re-indexed in
    order, and the arrows U^a from s to t with i_t = i_s + a between them;
    the others leave the slice and are quotiented away."""
    slot = {}
    maslov = []
    for k, (_label, m, i, j) in enumerate(c.gens):
        if j - i == w:
            slot[k] = len(maslov)
            maslov.append(m - 2 * i)
    diff = {
        (slot[t], slot[s]): 0
        for (t, s), a in c.diff.items()
        if s in slot and t in slot and c.gens[t].i == c.gens[s].i + a
    }
    return maslov, diff


def _f2_rank(rows):
    """Rank of a matrix over F2 with rows stored as bitmasks."""
    rank = 0
    pivots = {}
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


def _hfk_hat_per_diagonal(c):
    """Reference hfk_hat: one i = 0 slice per diagonal w."""
    table = {}
    for w in sorted({g.j - g.i for g in c.gens}):
        maslov, diff = _i0_slice(c, w)
        gens_at = {}
        for idx, m in enumerate(maslov):
            gens_at.setdefault(m, []).append(idx)
        ranks = {}
        for k, sources in gens_at.items():
            targets = gens_at.get(k - 1, [])
            tpos = {t: b for b, t in enumerate(targets)}
            rows = []
            for s in sources:
                row = 0
                for (t, ss), p in diff.items():
                    if ss == s:
                        row |= 1 << tpos[t]
                rows.append(row)
            ranks[k] = _f2_rank(rows)
        for k, gens in gens_at.items():
            rank = len(gens) - ranks.get(k, 0) - ranks.get(k + 1, 0)
            if rank:
                table[(w, k)] = rank
    return table


def test_hfk_hat_matches_per_diagonal():
    examples = [
        unknot_complex(),
        right_trefoil_complex(),
        left_trefoil_complex(),
        figure_eight_complex(),
    ]
    for m in range(3, 12, 2):
        for n in range(3, m + 1, 2):
            params = PretzelParams(m, n)
            for c in (model_complex(params), full_complex(params)):
                examples += [c, dualize(c)]
    # arrows U^1: dx = U y stays in the i = 0 slice and on its diagonal,
    # dx' = U y' leaves the slice, and in a box whose corner sits one
    # U-step out, db = dc = U ue stay in the slice across diagonals
    pairs = from_gens(
        [Generator("x", 1, 0, 0), Generator("y", 2, 1, 1),
         Generator("x'", 1, 0, 0), Generator("y'", 2, 0, 1)],
        {(1, 0): 1, (3, 2): 1},
    )
    box = build_box((0, 0))
    box.maslov[3], box.i[3], box.j[3] = 2, 1, 1
    box.diff.update({(3, 1): 1, (3, 2): 1})
    examples += [pairs, box, direct_sum([pairs, box])]
    assert hfk_hat(pairs) == {(1, 2): 1, (0, 1): 1}
    for c in examples:
        assert hfk_hat(c) == _hfk_hat_per_diagonal(c)


@given(st.sampled_from(["positive", "negative"]), steps_strategy)
def test_hfk_hat_matches_per_diagonal_staircases(sign, steps):
    c = build_staircase(sign, steps)
    assert hfk_hat(c) == _hfk_hat_per_diagonal(c)


@st.composite
def two_level_slices(draw):
    """A complex whose i = 0 slice has sources in grading 1 and targets in
    grading 0 with any F2 incidence.  Every generator sits on diagonal 0
    or 1; a target moved U^a along its diagonal, to (a, w + a) in grading
    2a, keeps its arrows U^a in the slice, and arrows across diagonals
    leave it."""
    ns, nt = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    gens = [Generator("s%d" % k, 1, 0, draw(st.integers(0, 1))) for k in range(ns)]
    for k in range(nt):
        a, w = draw(st.integers(0, 2)), draw(st.integers(0, 1))
        gens.append(Generator("t%d" % k, 2 * a, a, w + a))
    diff = {
        (t, s): gens[t].i
        for s in range(ns)
        for t in range(ns, ns + nt)
        if draw(st.booleans())
    }
    return from_gens(gens, diff)


@given(two_level_slices())
def test_hfk_hat_matches_per_diagonal_on_two_level_slices(c):
    assert hfk_hat(c) == _hfk_hat_per_diagonal(c)


def test_alexander_and_genus():
    assert alexander_poly(hfk_hat(right_trefoil_complex())) == {-1: 1, 0: -1, 1: 1}
    assert alexander_poly(hfk_hat(figure_eight_complex())) == {-1: -1, 0: 3, 1: -1}
    assert genus_detect(hfk_hat(right_trefoil_complex())) == 1
    assert genus_detect(hfk_hat(figure_eight_complex())) == 1


@given(st.sampled_from(["positive", "negative"]), steps_strategy)
def test_homology_representatives(sign, steps):
    c = build_staircase(sign, steps)
    sq = subquotient(c)
    d = _dense(sq.diff, len(sq.basis))
    h = sparse_homology(sq.diff, sq.maslov)
    assert len(h.free) == 1  # knot-like: one tower
    free, torsion = _two_pass_reference(d, sq.maslov)
    assert sorted(g for g, _ in h.free) == sorted(g for g, _ in free)
    assert sorted((g, k) for g, k, _ in h.torsion) == sorted(
        (g, k) for g, k, _ in torsion
    )
    for g, rep in h.free:
        assert not any(up.mat_vec(d, _dense_vector(rep, len(d))))  # cycle
        assert _gradings(rep, sq.maslov) == {g}
    for pos, (g, k, rep) in enumerate(h.torsion):
        assert not any(up.mat_vec(d, _dense_vector(rep, len(d))))
        assert _gradings(rep, sq.maslov) == {g}
        killed = {o: e + k for o, e in rep.items()}
        assert not any(sum(h.class_coords(killed), []))
        fc, tc = h.class_coords(rep)
        assert not any(fc)
        assert [1 if i == pos else 0 for i in range(len(h.torsion))] == tc


@given(steps_strategy)
def test_hfk_symmetry(steps):
    c = build_staircase("negative", steps)
    table = hfk_hat(c)
    for (w, k), rank in table.items():
        assert table.get((-w, k - 2 * w)) == rank
    alex = alexander_poly(table)
    assert sum(alex.values()) in (1, -1)
