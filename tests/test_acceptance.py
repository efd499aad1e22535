"""Acceptance gate: every release criterion, run exactly as stated.

Each test here is a contract item.  Shared expensive objects (the full
complexes of the sweep pairs) are built once per session.
"""

import time
from functools import lru_cache

from cfku.complexes import (
    build_box,
    build_staircase,
    direct_sum,
    dualize,
    figure_eight_complex,
    left_trefoil_complex,
    relabel,
    right_trefoil_complex,
    subquotient,
    unknot_complex,
    validate,
)
from cfku.cone import brute_force_vs, build_cone, involutive_invariants, involutive_vs
from cfku.homology import alexander_poly, genus_detect, hfk_hat, sparse_homology
from cfku.involution import (
    dual_involution,
    figure_eight_involution,
    identity_involution,
    involution_from_rules,
    square_pair,
    standard_staircase_involution,
    validate_involution,
)
from cfku.pretzel import (
    PretzelParams,
    box_multiplicities,
    compute_invariants,
    expected_alexander,
    expected_hfk,
    full_complex,
    full_involution,
    layout_involution,
    model_complex,
    model_involution_for,
    theorem_values,
)
from cfku import upoly as up
from test_homology import _dense
from test_pretzel import gmm_ledger


def odd_pairs(m_max):
    return [
        (m, n)
        for m in range(3, m_max + 1, 2)
        for n in range(3, m + 1, 2)
    ]


@lru_cache(maxsize=None)
def cached_full(m, n):
    return full_complex(PretzelParams(m, n))


@lru_cache(maxsize=None)
def cached_hfk(m, n):
    return hfk_hat(cached_full(m, n))


def c1_pair(nk):
    steps = (1, 1) if nk == 1 else (1, 2) + (1,) * (2 * nk - 2)
    stair = build_staircase("negative", steps)
    box = build_box((-1, -1), a_maslov=stair.gens[0].maslov)
    c = direct_sum([stair, box])
    return c, layout_involution(c, len(steps), {0: 1})


# 1. closed-form reproduction up to m = 41, both chiralities, on the model
# and the full complex


def test_criterion_1_theorem_sweep():
    start = time.monotonic()
    failures = []
    for m, n in odd_pairs(41):
        params = PretzelParams(m, n)
        for mirrored in (False, True):
            want = theorem_values(params, mirrored).triple
            model = compute_invariants(params, mirrored).triple
            full = compute_invariants(params, mirrored, use_full=True).triple
            if model != want or full != want:
                failures.append((m, n, mirrored, model, full, want))
    elapsed = time.monotonic() - start
    assert failures == []
    assert elapsed < 60.0, "sweep took %.1f s" % elapsed


# 2. worked small examples


def test_criterion_2_worked_examples():
    c = right_trefoil_complex()
    relabel(c, {"a": "z0", "b": "z1_1", "c": "z1_2"})
    assert involutive_invariants(c, standard_staircase_involution(c)) == (1, 1, 1)
    c = left_trefoil_complex()
    relabel(c, {"a": "z0", "b": "z1_1", "c": "z1_2"})
    assert involutive_invariants(c, standard_staircase_involution(c)) == (0, 0, -1)
    c = figure_eight_complex()
    assert involutive_invariants(c, figure_eight_involution(c)) == (0, 1, 0)


# 3. graded-module regression for the coupled family and its dual


def test_criterion_3_homology_regression():
    for nk in range(1, 6):
        c, iota = c1_pair(nk)
        a0 = subquotient(c)
        a0h = sparse_homology(a0.diff, a0.maslov)
        assert [g for g, _ in a0h.free] == [0]
        assert sorted((g, k) for g, k, _ in a0h.torsion) == [
            (2 * nk - 1, nk),
            (2 * nk, 1),
        ]
        from cfku.cone import cone_homology

        h = cone_homology(build_cone(c, iota))
        assert sorted(g for g, _ in h.free) == [1, 2 * nk]
        assert sorted((g, k) for g, k, _ in h.torsion) == [
            (2 * nk, 1),
            (2 * nk + 1, nk + 1),
        ]

        d = dualize(c)
        di = dual_involution(iota, d)
        a0 = subquotient(d)
        da0 = sparse_homology(a0.diff, a0.maslov)
        assert [g for g, _ in da0.free] == [-2 * nk]
        assert sorted((g, k) for g, k, _ in da0.torsion) == [(-2 * nk, 1)]
        dh = cone_homology(build_cone(d, di))
        assert sorted(g for g, _ in dh.free) == [-2 * nk - 1, -2 * nk]
        assert sorted((g, k) for g, k, _ in dh.torsion) == [(-2 * nk + 1, 1)]


# 4. bigraded rank oracle up to m = 15, plus the pinned box counts


def test_criterion_4_hfk_oracle():
    for m, n in odd_pairs(15):
        assert cached_hfk(m, n) == expected_hfk(PretzelParams(m, n)), (m, n)
    assert box_multiplicities(PretzelParams(9, 9)) == {
        4: 1, -4: 1, 2: 2, -2: 2, 0: 3
    }


# 5. Alexander polynomial and detected genus up to m = 15


def test_criterion_5_alexander_genus():
    for m, n in odd_pairs(15):
        params = PretzelParams(m, n)
        table = cached_hfk(m, n)
        alex = alexander_poly(table)
        assert alex == expected_alexander(params), (m, n)
        assert sum(alex.values()) == 1
        assert all(alex.get(-w) == coeff for w, coeff in alex.items())
        assert genus_detect(table) == (m + n) // 2


# 6. structural property suite


def test_criterion_6_structure():
    for m, n in odd_pairs(9):
        params = PretzelParams(m, n)
        c = cached_full(m, n)
        assert validate(c) == []
        assert len(c.gens) == len(gmm_ledger(params)) == 4 + (m - 2) * (n - 2)
        dd = dualize(dualize(c))
        assert dd.gens == c.gens and dd.diff == c.diff
        assert validate_involution(full_involution(params, c)) == []
        mc = model_complex(params)
        assert validate_involution(model_involution_for(params, mc)) == []


def test_criterion_6_box_acyclic():
    for corner in [(0, 0), (-1, -1), (2, 5)]:
        box = build_box(corner)
        assert validate(box) == []
        sq = subquotient(box)
        m = _dense(sq.diff, len(sq.basis))
        assert len(m) - 2 * up.smith_normal_form(m).rank == 0


def test_criterion_6_pair_splitting():
    cases = []
    c = right_trefoil_complex()
    relabel(c, {"a": "z0", "b": "z1_1", "c": "z1_2"})
    cases.append((c, standard_staircase_involution(c)))
    fe = figure_eight_complex()
    cases.append((fe, figure_eight_involution(fe)))
    mc = model_complex(PretzelParams(5, 5))
    cases.append((mc, model_involution_for(PretzelParams(5, 5), mc)))
    for c, iota in cases:
        base = involutive_invariants(c, iota)
        pair = direct_sum(
            [build_box((0, 3), suffix="@1"), build_box((3, 0), suffix="@2")]
        )
        bigger = direct_sum([c, pair])
        k = len(c.gens)
        rules = {**iota.matrix, **square_pair(k, k + 4)}
        assert involutive_invariants(bigger, involution_from_rules(bigger, rules)) == base


# 7. extractor equivalence on every cone small enough to brute-force


def test_criterion_7_oracle_equivalence():
    cases = []
    for maker in (right_trefoil_complex, left_trefoil_complex):
        c = maker()
        relabel(c, {"a": "z0", "b": "z1_1", "c": "z1_2"})
        cases.append((c, standard_staircase_involution(c)))
    fe = figure_eight_complex()
    cases.append((fe, figure_eight_involution(fe)))
    u = unknot_complex()
    cases.append((u, identity_involution(u)))
    for m, n in odd_pairs(9):
        params = PretzelParams(m, n)
        mc = model_complex(params)
        cases.append((mc, model_involution_for(params, mc)))
        fc = cached_full(m, n)
        if 2 * len(fc.gens) <= 60:
            cases.append((fc, full_involution(params, fc)))
    with_mirrors = []
    for c, iota in cases:
        with_mirrors.append((c, iota))
        d = dualize(c)
        with_mirrors.append((d, dual_involution(iota, d)))
    checked = 0
    for c, iota in with_mirrors:
        cone = build_cone(c, iota)
        if len(cone.labels) > 60:
            continue
        assert involutive_vs(cone) == brute_force_vs(cone)
        checked += 1
    assert checked == len(with_mirrors)
