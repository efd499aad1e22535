"""Mapping cone, correction terms, and the brute-force oracle.

The worked small knots pin every printed value; the C1 family and its
dual serve as the graded-module regression; the saturation extractor is
checked against the brute-force definition-chasing search everywhere it
is feasible.
"""

import copy
import dataclasses
import logging
import re
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from cfku import cone as cone_module, pretzel, upoly as up
from cfku.complexes import (
    Generator,
    _compose,
    build_box,
    by_source,
    build_staircase,
    direct_sum,
    dualize,
    figure_eight_complex,
    from_gens,
    relabel,
    left_trefoil_complex,
    restrict_to_a0,
    right_trefoil_complex,
    subquotient,
    unknot_complex,
)
from cfku.cone import (
    ConeComplex,
    _assemble_cone,
    brute_force_vs,
    build_cone,
    cancel_units,
    cone_homology,
    involutive_invariants,
    involutive_vs,
)
from cfku.homology import GradedModule, _apply, sparse_homology, v0
from cfku.involution import (
    Involution,
    dual_involution,
    figure_eight_involution,
    identity_involution,
    standard_staircase_involution,
    square_pair,
    involution_from_rules,
)
from cfku.pretzel import (
    PretzelParams,
    full_complex,
    full_involution,
    layout_involution,
    model_complex,
    model_involution_for,
)


def trefoil(left=False):
    c = left_trefoil_complex() if left else right_trefoil_complex()
    relabel(c, {"a": "z0", "b": "z1_1", "c": "z1_2"})
    return c, standard_staircase_involution(c)


def c1_model(nk):
    steps = (1, 2) + (1,) * (2 * nk - 2)
    stair = build_staircase("negative", steps)
    box = build_box((-1, -1), a_maslov=stair.gens[0].maslov)
    c = direct_sum([stair, box])
    return c, layout_involution(c, len(steps), {0: 1})


def tiny_c1():
    stair = build_staircase("negative", (1, 1))
    box = build_box((-1, -1), a_maslov=stair.gens[0].maslov)
    c = direct_sum([stair, box])
    return c, layout_involution(c, 2, {0: 1})


def test_unknot_cone():
    c = unknot_complex()
    cone = build_cone(c, identity_involution(c))
    assert len(cone.labels) == 2
    h = cone_homology(cone)
    assert sorted(g for g, _ in h.free) == [0, 1]
    assert h.torsion == []
    assert involutive_invariants(c, identity_involution(c)) == (0, 0, 0)


def test_trefoil_cone_cycle_grading():
    c, iota = trefoil()
    cone = build_cone(c, iota)
    assert len(cone.labels) == 6
    # [z1_1 + Q z0] is a cycle of grading -1
    x = {cone.labels.index("z1_1"): 0, cone.labels.index("Q z0"): 0}
    assert _apply(by_source(cone.diff), x) == {}
    assert {cone.maslov[o] - 2 * e for o, e in x.items()} == {-1}
    h = cone_homology(cone)
    assert any(sum(h.class_coords(x), []))


def test_worked_example_table():
    c, iota = trefoil()
    assert involutive_invariants(c, iota) == (1, 1, 1)
    c, iota = trefoil(left=True)
    assert involutive_invariants(c, iota) == (0, 0, -1)
    c = figure_eight_complex()
    assert involutive_invariants(c, figure_eight_involution(c)) == (0, 1, 0)


def test_left_trefoil_saturation_witness():
    # U[z0] = [Q(U z1_1 + U z1_2)]: the grading-2 tower is the saturated one
    c, iota = trefoil(left=True)
    cone = build_cone(c, iota)
    assert cone.labels == ["z0", "U z1_1", "U z1_2", "Q z0", "Q U z1_1", "Q U z1_2"]
    h = cone_homology(cone)
    uz0 = {cone.labels.index("z0"): 1}
    qb = {cone.labels.index("Q U z1_1"): 0, cone.labels.index("Q U z1_2"): 0}
    assert h.class_coords(uz0) == h.class_coords(qb)
    assert sorted(g for g, _ in h.free) == [1, 2]


def test_c1_family_regression():
    """Graded-module shapes of H(A0-) and the cone for n(K) = 1..5.

    Free parts and the order-1 summands match the printed decomposition
    lines; the finite tower has order U^(n+1) at grading 2n+1 (computed;
    the printed grading subscript differs by the cone shift convention).
    """
    for nk in range(1, 6):
        c, iota = tiny_c1() if nk == 1 else c1_model(nk)
        a0h = cone_homology_of_a0(c)
        assert [g for g, _ in a0h.free] == [0]
        assert sorted((g, k) for g, k, _ in a0h.torsion) == [
            (2 * nk - 1, nk),
            (2 * nk, 1),
        ]
        cone = build_cone(c, iota)
        h = cone_homology(cone)
        assert sorted(g for g, _ in h.free) == [1, 2 * nk]
        assert sorted((g, k) for g, k, _ in h.torsion) == [
            (2 * nk, 1),
            (2 * nk + 1, nk + 1),
        ]
        assert involutive_vs(cone) == (0, -nk)


def test_dual_c1_family_regression():
    for nk in range(1, 6):
        c, iota = tiny_c1() if nk == 1 else c1_model(nk)
        d = dualize(c)
        di = dual_involution(iota, d)
        a0h = cone_homology_of_a0(d)
        assert [g for g, _ in a0h.free] == [-2 * nk]
        assert sorted((g, k) for g, k, _ in a0h.torsion) == [(-2 * nk, 1)]
        cone = build_cone(d, di)
        h = cone_homology(cone)
        assert sorted(g for g, _ in h.free) == [-2 * nk - 1, -2 * nk]
        assert sorted((g, k) for g, k, _ in h.torsion) == [(-2 * nk + 1, 1)]
        assert involutive_vs(cone) == (nk + 1, nk)


def cone_homology_of_a0(c):
    a0 = subquotient(c)
    return sparse_homology(a0.diff, a0.maslov)


def _examples_for_oracle():
    out = []
    out.append(trefoil())
    out.append(trefoil(left=True))
    fe = figure_eight_complex()
    out.append((fe, figure_eight_involution(fe)))
    u = unknot_complex()
    out.append((u, identity_involution(u)))
    for nk in (1, 2, 3):
        out.append(tiny_c1() if nk == 1 else c1_model(nk))
        c, iota = tiny_c1() if nk == 1 else c1_model(nk)
        d = dualize(c)
        out.append((d, dual_involution(iota, d)))
    return out


def test_brute_force_oracle_agreement():
    for c, iota in _examples_for_oracle():
        cone = build_cone(c, iota)
        assert len(cone.labels) <= 60
        assert involutive_vs(cone) == brute_force_vs(cone)


def test_ordering_property():
    # lower V0 >= V0 >= upper V0 on every example
    from cfku.homology import v0

    for c, iota in _examples_for_oracle():
        lo, hi = involutive_vs(build_cone(c, iota))
        mid = v0(c)
        assert lo >= mid >= hi


def test_q_action_structure():
    for c, iota in _examples_for_oracle():
        cone = build_cone(c, iota)
        # Q is a degree -1 square-zero chain endomorphism
        assert _compose(cone.q, cone.q) == {}
        assert _compose(cone.diff, cone.q) == _compose(cone.q, cone.diff)
        # localized ranks: two towers, one saturated by Q
        n = len(cone.maslov)
        d = up.mat_zero(n, n)
        for (t, s), e in cone.diff.items():
            d[t][s] = up.mono(e)
        assert n - 2 * up.smith_normal_form(d).rank == 2


def _staircase_with_involution(sign, steps):
    c = build_staircase(sign, steps)
    return c, standard_staircase_involution(c)


def _figure_eight():
    c = figure_eight_complex()
    return c, figure_eight_involution(c)


corners = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@settings(max_examples=100, deadline=None)
@given(
    st.builds(
        _staircase_with_involution,
        st.sampled_from(["positive", "negative"]),
        st.lists(st.integers(1, 3), min_size=1, max_size=4).map(tuple),
    ),
    st.lists(corners, min_size=1, max_size=2),
)
@example(trefoil(), [(0, 2)])
@example(_figure_eight(), [(0, 2)])
def test_pair_splitting_invariance(base, pair_corners):
    """Mirrored box pairs swapped by the square map leave the triple alone."""
    c, iota = base
    parts = [c]
    for k, (i, j) in enumerate(pair_corners):
        parts.append(build_box((i, j), suffix="&%d_1" % k))
        parts.append(build_box((j, i), suffix="&%d_2" % k))
    bigger = direct_sum(parts)
    rules = dict(iota.matrix)
    for k in range(len(c.gens), len(bigger.gens), 8):
        rules.update(square_pair(k, k + 4))
    bigger_iota = involution_from_rules(bigger, rules)
    assert involutive_invariants(bigger, bigger_iota) == involutive_invariants(c, iota)
    cone = build_cone(bigger, bigger_iota)
    if len(cone.labels) <= 60:
        assert involutive_vs(cone) == brute_force_vs(cone)


def test_restriction_rejects_region_leak():
    c, iota = trefoil()
    a0 = subquotient(c)
    m = restrict_to_a0(a0, iota.matrix, "iota")
    assert m[(a0.labels().index("z1_2"), a0.labels().index("z1_1"))] == 0
    assert m[(0, 0)] == 0


def test_a0_rejects_an_iota_with_a_negative_power():
    # U^-1 a in iota(a) leaves A0-; Involution does not validate
    c = right_trefoil_complex()
    bad = Involution(c, {(0, 0): -1, (2, 1): 0, (1, 2): 0})
    message = r"iota does not restrict to A0-: U\^-1 from a to a"
    with pytest.raises(ValueError, match=message):
        build_cone(c, bad)
    with pytest.raises(ValueError, match=message):
        cancel_units(c, bad)


def test_involutive_vs_precondition():
    # one generator, no arrows: the cone homology is a single tower
    one_tower = ConeComplex([0], {}, {})
    with pytest.raises(ValueError, match="1 towers, expected 2"):
        involutive_vs(one_tower)


def test_involutive_vs_rejects_q_rank_and_parity():
    # no differential, so both generators are towers; Q = 0 first
    with pytest.raises(ValueError, match="saturates 0 towers"):
        involutive_vs(ConeComplex([1, 0], {}, {}))
    # Q a = b and Q b = U a: the image is all of F[U]^2
    with pytest.raises(ValueError, match="saturates 2 towers"):
        involutive_vs(ConeComplex([1, 0], {}, {(1, 0): 0, (0, 1): 1}))
    # both towers in even grading
    with pytest.raises(ValueError, match="wrong parities"):
        involutive_vs(ConeComplex([0, 2], {}, {(0, 1): 0}))


def test_answer_path_makes_no_smith_normal_form(monkeypatch):
    calls = []
    real = up.smith_normal_form

    def counting(matrix):
        calls.append(len(matrix))
        return real(matrix)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cfku" and getattr(module, "smith_normal_form", None) is real:
            monkeypatch.setattr(module, "smith_normal_form", counting)
    pretzel.model_triple.cache_clear()  # so that the model path runs
    for m, n in ((5, 5), (7, 5), (7, 7), (9, 7)):  # C1, C2, C3, C4
        for mirrored in (False, True):
            for use_full in (False, True):
                pretzel.compute_invariants(PretzelParams(m, n), mirrored, use_full)
    assert calls == []


# ---------------------------------------------------------------------------
# One homology per cone, shared by both readings


def _shared_homology_inputs():
    params = PretzelParams(5, 5)
    mc = model_complex(params)
    return [trefoil(), (mc, model_involution_for(params, mc))]


def test_both_readings_take_the_homology_once(monkeypatch):
    sizes = []
    real = cone_module.sparse_homology

    def counting(diff, maslov):
        sizes.append(len(maslov))
        return real(diff, maslov)

    monkeypatch.setattr(cone_module, "sparse_homology", counting)
    for c, iota in _shared_homology_inputs():
        cone = build_cone(c, iota)
        sizes.clear()
        involutive_vs(cone)
        brute_force_vs(cone)
        assert sizes == [len(cone.labels)]


def test_both_readings_take_the_q_coordinates_once(monkeypatch):
    calls = []
    real = GradedModule.class_coords

    def counting(self, x):
        calls.append(len(x))
        return real(self, x)

    monkeypatch.setattr(GradedModule, "class_coords", counting)
    for c, iota in _shared_homology_inputs():
        cone = build_cone(c, iota)
        involutive_vs(cone)
        brute_force_vs(cone)
        h = cone_homology(cone)
        assert len(calls) == len(h.free) + len(h.torsion)
        calls.clear()


def test_readings_agree_in_either_order():
    for c, iota in _shared_homology_inputs():
        first = build_cone(c, iota)
        fast_first = (involutive_vs(first), brute_force_vs(first))
        second = build_cone(c, iota)
        slow_first = (brute_force_vs(second), involutive_vs(second))
        assert fast_first[0] == fast_first[1] == slow_first[0] == slow_first[1]


def test_readings_leave_the_shared_homology_unchanged():
    for c, iota in _shared_homology_inputs():
        cone = build_cone(c, iota)
        before = copy.deepcopy(cone_homology(cone))
        involutive_vs(cone)
        brute_force_vs(cone)
        assert cone_homology(cone) is cone_homology(cone)
        assert cone_homology(cone) == before


def test_cone_is_frozen():
    cone = build_cone(*trefoil())
    with pytest.raises(dataclasses.FrozenInstanceError):
        cone.diff = {}


def test_failed_d_squared_raises_on_every_read():
    # d(a) = b, d(b) = c, so d^2(a) = c
    bad = ConeComplex([2, 1, 0], {(1, 0): 0, (2, 1): 0}, {})
    for _ in range(2):
        with pytest.raises(ValueError, match="square to zero"):
            cone_homology(bad)
    assert "homology" not in vars(bad)


# ---------------------------------------------------------------------------
# Cancellation of the unit arrows of A0-


def _pretzel_inputs(m_max):
    """Model and full complexes of every odd pair up to m_max, with duals."""
    for m in range(3, m_max + 1, 2):
        for n in range(3, m + 1, 2):
            params = PretzelParams(m, n)
            mc = model_complex(params)
            fc = full_complex(params)
            for c, iota in (
                (mc, model_involution_for(params, mc)),
                (fc, full_involution(params, fc)),
            ):
                yield c, iota
                d = dualize(c)
                yield d, dual_involution(iota, d)


def test_reduced_invariants_match_dense_cone():
    cases = _examples_for_oracle() + list(_pretzel_inputs(13))
    for c, iota in cases:
        dense = (v0(c), *involutive_vs(build_cone(c, iota)))
        assert involutive_invariants(c, iota) == dense


def test_reduced_cones_agree_with_brute_force():
    cases = _examples_for_oracle() + list(_pretzel_inputs(21))
    for c, iota in cases:
        a0, f = cancel_units(c, iota)
        assert 0 not in a0.diff.values()  # no unit arrow survives
        cone = _assemble_cone(a0, f)
        assert involutive_vs(cone) == brute_force_vs(cone)


def test_cancellation_sizes():
    sizes = []
    for k in (13, 17, 21):
        params = PretzelParams(k, k)
        c = full_complex(params)
        d = dualize(c)
        a0, _f = cancel_units(d, dual_involution(full_involution(params, c), d))
        sizes.append((len(d.gens), len(a0.basis)))
    assert sizes == [(125, 11), (229, 15), (365, 19)]


def test_cancellation_rejects_non_chain_map():
    # swapping U z1_1 and U z1_2 but dropping z0 does not commute with
    # d(U z1_r) = U z0; nothing cancels, so the fault survives to A0'
    c, _iota = trefoil(left=True)
    idx = c.indices()
    swap = {(idx["z1_2"], idx["z1_1"]): 0, (idx["z1_1"], idx["z1_2"]): 0}
    bad = Involution(c, swap)
    with pytest.raises(ValueError, match="does not commute"):
        cancel_units(c, bad)
    with pytest.raises(ValueError, match="does not commute"):
        involutive_invariants(c, bad)


def test_cancellation_names_each_failed_law():
    def invalid(problem):
        return re.escape("cancelled A0- is invalid: [%r]" % problem)

    # iota' grading law: one U-power of a validated involution raised by 1
    params = PretzelParams(5, 5)
    c = model_complex(params)
    matrix = model_involution_for(params, c).matrix
    raised = dict(matrix)
    raised[(1, 2)] += 1
    message = invalid("iota' entry U^1 from 0 to 0 breaks the grading law")
    with pytest.raises(ValueError, match=message):
        cancel_units(c, Involution(c, raised))
    # d'^2: x -> U y -> U z has no unit arrow, so d' = d and d^2 x = U^2 z
    line = from_gens(
        [Generator("x", 5, 0, 0), Generator("y", 6, 0, 0), Generator("z", 7, 0, 0)],
        {(1, 0): 1, (2, 1): 1},
    )
    with pytest.raises(ValueError, match=invalid("d'^2 != 0")):
        cancel_units(line, Involution(line, {(k, k): 0 for k in range(3)}))
    # commutation: one entry of the same involution dropped
    dropped = dict(matrix)
    del dropped[(1, 2)]
    with pytest.raises(ValueError, match=invalid("iota' does not commute with d'")):
        cancel_units(c, Involution(c, dropped))


def test_invariants_log_cancellation_sizes(caplog):
    params = PretzelParams(13, 13)
    c = full_complex(params)
    d = dualize(c)
    di = dual_involution(full_involution(params, c), d)
    with caplog.at_level(logging.DEBUG, logger="cfku.cone"):
        involutive_invariants(d, di)
    assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
        (
            "cfku.cone",
            "DEBUG",
            "A0-: 125 generators, 11 after cancellation; cone: 22 generators",
        )
    ]
