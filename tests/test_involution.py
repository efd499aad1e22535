"""Involutions: constructions, fault injection, and tiny-scale uniqueness.

Every builder must pass the validator; the fault-injection tests confirm
the validator actually catches the failure modes it claims to.  The slow
test enumerates the full space of skew-filtered chain maps squaring to
the Sarkar map on the smallest coupled staircase-plus-box complex and
checks they form a single orbit under filtered changes of basis.  The
index builders are compared with the label-rule builders they replaced,
kept here as _reference_*.
"""

import re

import pytest

from cfku import upoly as up
from cfku.complexes import (
    FilteredComplex,
    Generator,
    from_gens,
    _compose,
    add_term,
    build_box,
    build_staircase,
    direct_sum,
    dualize,
    figure_eight_complex,
    left_trefoil_complex,
    relabel,
    right_trefoil_complex,
    sarkar,
    unknot_complex,
)
from cfku.involution import (
    Involution,
    dual_involution,
    figure_eight_involution,
    identity_involution,
    involution_from_rules,
    square_pair,
    staircase_with_boxes,
    standard_staircase_involution,
    validate_involution,
)
from cfku.pretzel import (
    PretzelParams,
    classify,
    full_complex,
    full_involution,
    layout_involution,
    model_complex,
    model_involution_for,
)


def trefoil_staircase(left=False):
    c = left_trefoil_complex() if left else right_trefoil_complex()
    relabel(c, {"a": "z0", "b": "z1_1", "c": "z1_2"})
    return c


def tiny_c1():
    """Smallest coupled model: three-step-free staircase with one box."""
    stair = build_staircase("negative", (1, 1))
    box = build_box((-1, -1), a_maslov=stair.gens[0].maslov)
    return direct_sum([stair, box])


def c1_model(nk):
    stair = build_staircase("negative", (1, 2) + (1,) * (2 * nk - 2))
    box = build_box((-1, -1), a_maslov=stair.gens[0].maslov)
    return direct_sum([stair, box])


def c1_involution(c):
    """The C1 involution of a staircase summed with one box."""
    return layout_involution(c, (len(c.gens) - 5) // 2, {0: 1})


def test_trefoil_involutions():
    for left in (False, True):
        c = trefoil_staircase(left)
        iota = standard_staircase_involution(c)
        assert validate_involution(iota) == []
        idx = c.indices()
        assert iota.matrix[(idx["z1_2"], idx["z1_1"])] == 0
        assert iota.matrix[(idx["z0"], idx["z0"])] == 0


def test_staircase_involution_rejects_non_staircase():
    # the figure-eight complex: the reflection swaps ue and x
    message = "grading law broken on U^0 x in iota(ue)"
    with pytest.raises(ValueError, match=re.escape(message)):
        standard_staircase_involution(figure_eight_complex())
    # a staircase plus a lone generator the reflection does not reach
    stair = build_staircase("negative", (1, 2))
    extra = FilteredComplex(["x"], [stair.maslov[0]], [0], [0])
    with pytest.raises(ValueError, match=re.escape("no involution image for ['x']")):
        standard_staircase_involution(direct_sum([stair, extra]))


# ---------------------------------------------------------------------------
# validate_involution: one law per test, each broken alone


def test_validator_grading_law():
    # the right slot but Maslov shift 2: x and y sit at the origin in
    # gradings 0 and 2, and iota swaps them
    c = FilteredComplex(["x", "y"], [0, 2], [0, 0], [0, 0])
    problems = validate_involution(Involution(c, {(1, 0): 0, (0, 1): 0}))
    assert len(problems) == 2
    assert all("grading law broken" in p for p in problems)


def test_validator_transposed_slot():
    # the identity on a staircase commutes with d and squares to sarkar,
    # the identity there, but leaves z1_1 and z1_2 in their own slots
    c = trefoil_staircase()
    identity = {(k, k): 0 for k in range(len(c.gens))}
    problems = validate_involution(Involution(c, identity))
    assert problems == [
        "term U^0 %s of iota(%s) not in the transposed slot" % (x, x)
        for x in ("z1_1", "z1_2")
    ]


def test_validator_commutation():
    # x -> y and x' -> y' at the origin; swapping x and x' but fixing y
    # and y' keeps the slots and squares to the identity, which is sarkar
    c = from_gens(
        [
            Generator("x", 0, 0, 0),
            Generator("y", -1, 0, 0),
            Generator("x'", 0, 0, 0),
            Generator("y'", -1, 0, 0),
        ],
        {(1, 0): 0, (3, 2): 0},
    )
    assert sarkar(c) == {(k, k): 0 for k in range(4)}
    swap = {(2, 0): 0, (0, 2): 0, (1, 1): 0, (3, 3): 0}
    problems = validate_involution(Involution(c, swap))
    assert problems == ["does not commute with the differentials"]


def test_validator_square_is_sarkar():
    # the figure-eight map without its U^-1 ue term on x commutes with d
    # but squares a to a, where sarkar(a) = a + U^-1 ue
    c = figure_eight_complex()
    iota = figure_eight_involution(c)
    broken = dict(iota.matrix)
    idx = c.indices()
    del broken[(idx["ue"], idx["x"])]
    problems = validate_involution(Involution(c, broken))
    assert problems == ["iota^2 differs from the Sarkar map"]


def test_square_pair_main_diagonal():
    pair = direct_sum([build_box((0, 0), suffix="1"), build_box((0, 0), suffix="2")])
    iota = involution_from_rules(pair, square_pair(0, 4))
    assert validate_involution(iota) == []


def test_square_pair_off_diagonal():
    pair = direct_sum([build_box((0, 2), suffix="1"), build_box((2, 0), suffix="2")])
    iota = involution_from_rules(pair, square_pair(0, 4))
    assert validate_involution(iota) == []


def test_square_pair_rejects_unmirrored():
    pair = direct_sum([build_box((0, 2), suffix="1"), build_box((1, 0), suffix="2")])
    message = "term U^0 a2 of iota(a1) not in the transposed slot"
    with pytest.raises(ValueError, match=re.escape(message)):
        involution_from_rules(pair, square_pair(0, 4))


def test_square_pair_fault_injection():
    pair = direct_sum([build_box((0, 0), suffix="1"), build_box((0, 0), suffix="2")])
    idx = pair.indices()
    b1, b2, c2 = idx["b1"], idx["b2"], idx["c2"]
    rules = square_pair(0, 4)
    del rules[(c2, b1)]
    rules[(b2, b1)] = 0  # should be c2
    message = "term U^0 b2 of iota(b1) not in the transposed slot"
    with pytest.raises(ValueError, match=re.escape(message)):
        involution_from_rules(pair, rules)


def test_c1_squares_to_sarkar():
    c = c1_model(2)
    iota = c1_involution(c)
    sigma = sarkar(c)
    idx = c.indices()
    a, ue = idx["a"], idx["ue"]
    # sigma(a) = a + U^-1 ue, reproduced by composing iota with itself
    sq = _compose(iota.matrix, iota.matrix)
    assert sq[(ue, a)] == -1
    assert sq == sigma


def test_c1_dropped_term_fails():
    c = c1_model(2)
    iota = c1_involution(c)
    broken = dict(iota.matrix)
    idx = c.indices()
    del broken[(idx["z0"], idx["a"])]  # drop the +z0 coupling term
    bad = Involution(c, broken)
    assert any("iota^2" in p or "commute" in p for p in validate_involution(bad))


def test_c1_identity_on_box_fails_skew():
    c = c1_model(2)
    bad = Involution(c, {(k, k): 0 for k in range(len(c.gens))})
    problems = validate_involution(bad)
    assert any("transposed slot" in p for p in problems)


def test_model_involutions_all_families():
    cases = {
        "C1": (c1_model(2), 4, {0: 1}),
        "C2": (build_staircase("negative", (1, 2, 1)), 3, {}),
        "C3": (build_staircase("negative", (1, 2)), 2, {}),
        "C4": (build_staircase("negative", (1, 2, 1, 1, 1)), 5, {}),
    }
    for c, v, boxes in cases.values():
        iota = layout_involution(c, v, boxes)
        assert validate_involution(iota) == []
        assert validate_involution(dual_involution(iota, dualize(c))) == []


def test_dual_c1_formulas():
    c = c1_model(2)
    iota = c1_involution(c)
    d = dualize(c)
    di = dual_involution(iota, d)
    assert validate_involution(di) == []
    # the dual of iota(c) = b + z1_1 sends z1_1 to z1_2 plus a c term
    z1_1 = d.indices()["z1_1"]
    img = {d.gens[t].label: a for (t, s), a in di.matrix.items() if s == z1_1}
    assert set(img) == {"z1_2", "c"}


def test_sarkar_of_dual_is_transpose():
    # why the transpose of a valid iota squares to the Sarkar map of the
    # dual: the transpose of sarkar(c) is sarkar(dualize(c)) on the worked
    # examples, every model complex with m <= 41 and every full complex
    # with m <= 21
    cases = [
        right_trefoil_complex(),
        left_trefoil_complex(),
        figure_eight_complex(),
        unknot_complex(),
    ]
    for m in range(3, 42, 2):
        for n in range(3, m + 1, 2):
            params = PretzelParams(m, n)
            cases.append(model_complex(params))
            if m <= 21:
                cases.append(full_complex(params))
    assert len(cases) == 4 + 210 + 55
    for c in cases:
        transpose = {(s, t): a for (t, s), a in sarkar(c).items()}
        assert sarkar(dualize(c)) == transpose


def test_dual_involution_validates_on_every_answer_path_case():
    # dual_involution transposes without a second sarkar or
    # validate_involution; these are those checks, on every mirrored case
    # of the theorem sweep and the verify command: the worked examples and
    # the model and full complexes of every odd pair with m <= 41
    cases = []
    for left in (False, True):
        c = trefoil_staircase(left)
        cases.append((c, standard_staircase_involution(c)))
    fe = figure_eight_complex()
    cases.append((fe, figure_eight_involution(fe)))
    u = unknot_complex()
    cases.append((u, identity_involution(u)))
    for m in range(3, 42, 2):
        for n in range(3, m + 1, 2):
            params = PretzelParams(m, n)
            c = model_complex(params)
            cases.append((c, model_involution_for(params, c)))
            c = full_complex(params)
            cases.append((c, full_involution(params, c)))
    assert len(cases) == 4 + 2 * 210
    for c, iota in cases:
        d = dualize(c)
        assert validate_involution(dual_involution(iota, d)) == []


# ---------------------------------------------------------------------------
# The label-rule builders the index maps replaced, kept as a reference


def _reference_matrix(c, rules):
    """The matrix of label rules {source: [(target, U-exponent), ...]}."""
    slot = c.indices()
    matrix = {}
    for src, targets in rules.items():
        for tgt, e in targets:
            add_term(matrix, (slot[tgt], slot[src]), e)
    return matrix


def _reference_staircase_reflection_rules(c):
    """z0 fixed, and z_r^1 and z_r^2 swapped while both are in c."""
    labels = {g.label for g in c.gens}
    rules = {"z0": [("z0", 0)]}
    r = 1
    while "z%d_1" % r in labels and "z%d_2" % r in labels:
        one, two = "z%d_1" % r, "z%d_2" % r
        rules[one], rules[two] = [(two, 0)], [(one, 0)]
        r += 1
    return rules


def _reference_square_pair_rules(suffix1, suffix2):
    return {
        "a" + suffix1: [("a" + suffix2, 0), ("ue" + suffix2, -1)],
        "b" + suffix1: [("c" + suffix2, 0)],
        "c" + suffix1: [("b" + suffix2, 0)],
        "ue" + suffix1: [("ue" + suffix2, 0)],
        "a" + suffix2: [("a" + suffix1, 0)],
        "b" + suffix2: [("c" + suffix1, 0)],
        "c" + suffix2: [("b" + suffix1, 0)],
        "ue" + suffix2: [("ue" + suffix1, 0)],
    }


def _reference_c1_box_coupling_rules(box_suffix):
    """Laid over the reflection, its z0 rule replaces the reflection's."""
    a, b, cc, ue = ("a" + box_suffix, "b" + box_suffix, "c" + box_suffix,
                    "ue" + box_suffix)
    return {
        a: [(a, 0), ("z0", 0)],
        b: [(cc, 0), ("z1_2", 0)],
        cc: [(b, 0), ("z1_1", 0)],
        ue: [(ue, 0)],
        "z0": [("z0", 0), (ue, -1)],
    }


def _reference_model_matrix(model, c):
    rules = _reference_staircase_reflection_rules(c)
    if model == "C1":
        rules.update(_reference_c1_box_coupling_rules(""))
    return _reference_matrix(c, rules)


def _reference_full_matrix(params, c):
    spec = classify(params)
    rules = _reference_staircase_reflection_rules(c)
    if spec.main_diag_boxes:
        rules.update(_reference_c1_box_coupling_rules("_d1"))
    for t in range(1 + spec.main_diag_boxes, spec.boxes.get(0, 0) + 1, 2):
        rules.update(_reference_square_pair_rules("_d%d" % t, "_d%d" % (t + 1)))
    for s, count in spec.boxes.items():
        if s <= 0:
            continue
        for t in range(1, count + 1):
            rules.update(_reference_square_pair_rules("_p%d_%d" % (s, t), "_m%d_%d" % (s, t)))
    return _reference_matrix(c, rules)


def test_index_involutions_equal_the_label_rules():
    # every model complex with m <= 41 and every full complex with m <= 21
    checked = 0
    for m in range(3, 42, 2):
        for n in range(3, m + 1, 2):
            params = PretzelParams(m, n)
            c = model_complex(params)
            family = classify(params).family
            assert model_involution_for(params, c).matrix == _reference_model_matrix(family, c)
            checked += 1
            if m <= 21:
                c = full_complex(params)
                assert full_involution(params, c).matrix == _reference_full_matrix(params, c)
                checked += 1
    assert checked == 210 + 55
    # the worked examples and a mirrored pair on its own
    for left in (False, True):
        c = trefoil_staircase(left)
        assert standard_staircase_involution(c).matrix == _reference_matrix(
            c, _reference_staircase_reflection_rules(c)
        )
    pair = direct_sum([build_box((0, 2), suffix="1"), build_box((2, 0), suffix="2")])
    assert square_pair(0, 4) == _reference_matrix(pair, _reference_square_pair_rules("1", "2"))
    c = figure_eight_complex()
    assert figure_eight_involution(c).matrix == _reference_matrix(c, {
        "a": [("a", 0), ("x", 0)], "b": [("c", 0)], "c": [("b", 0)], "ue": [("ue", 0)],
        "x": [("x", 0), ("ue", -1)],
    })


def _one_field_changes(d):
    """Copies of the complex d that each differ from it in one respect:
    a name, one entry of a column, an arrow, the order or the size."""

    def with_entry(column, k, change):
        other = from_gens(d.gens, dict(d.diff))
        col = getattr(other, column)
        col[k] = change(col[k])
        return other

    def with_diff(diff):
        return from_gens(d.gens, diff)

    (t, s), a = next(iter(d.diff.items()))
    assert (s, t) not in d.diff
    swapped = list(d.gens)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    return [
        with_entry("names", 1, lambda name: name + "'"),
        with_entry("maslov", 1, lambda m: m + 2),
        with_entry("i", 1, lambda i: i + 1),
        with_entry("j", 1, lambda j: j - 1),
        with_entry("j", len(d.maslov) - 1, lambda j: j + 1),
        with_diff({**d.diff, (t, s): a + 1}),
        with_diff({**d.diff, (s, t): a}),
        with_diff({k: e for k, e in d.diff.items() if k != (t, s)}),
        from_gens(swapped, dict(d.diff)),
        from_gens(d.gens[:-1], dict(d.diff)),
    ]


def test_dual_involution_rejects_other_complex():
    c = trefoil_staircase(left=True)
    with pytest.raises(ValueError):
        dual_involution(standard_staircase_involution(c), c)
    # the guard is dual_c == dualize(c): every one-field change of the
    # dual of a full complex fails it, and the dual itself passes
    params = PretzelParams(5, 5)
    c = full_complex(params)
    iota = full_involution(params, c)
    d = dualize(c)
    di = dual_involution(iota, from_gens(d.gens, dict(d.diff)))
    assert di.matrix == {(s, t): a for (t, s), a in iota.matrix.items()}
    changes = _one_field_changes(d)
    assert len(changes) == 10
    for other in changes:
        assert other != d
        with pytest.raises(ValueError, match="needs the dual"):
            dual_involution(iota, other)


def test_figure_eight_involution():
    c = figure_eight_complex()
    iota = figure_eight_involution(c)
    assert validate_involution(iota) == []
    sq = _compose(iota.matrix, iota.matrix)
    idx = c.indices()
    assert sq[(idx["ue"], idx["a"])] == -1


def test_identity_involution_unknot():
    c = unknot_complex()
    assert validate_involution(identity_involution(c)) == []


def test_missing_rule_rejected():
    c = trefoil_staircase()
    with pytest.raises(ValueError, match=re.escape("no involution image for ['z1_1', 'z1_2']")):
        involution_from_rules(c, {(0, 0): 0})


def test_rule_naming_an_absent_label_rejected():
    # the C1 coupling of a box at index 1 on a staircase without a box:
    # it lands on staircase generators and sends them out of their slots
    message = "term U^0 z1_1 of iota(z1_1) not in the transposed slot"
    with pytest.raises(ValueError, match=re.escape(message)):
        involution_from_rules(build_staircase("negative", (1, 2)), staircase_with_boxes(0, 1, []))
    c = trefoil_staircase()
    rules = {(0, 0): 0, (2, 1): 0, (1, 2): 0}
    with pytest.raises(ValueError, match=re.escape("indices [3], not generators of the complex")):
        involution_from_rules(c, {**rules, (0, 3): 0})
    with pytest.raises(ValueError, match=re.escape("indices [-1, 5], not generators of the complex")):
        involution_from_rules(c, {**rules, (5, 0): 0, (-1, 1): 0})


# ---------------------------------------------------------------------------
# Exhaustive uniqueness at the smallest coupled complex (slow tier)


def _allowed_entries(c, kind):
    out = []
    for s, gs in enumerate(c.gens):
        si, sj = (gs.i, gs.j) if kind == "filtered" else (gs.j, gs.i)
        for t, gt in enumerate(c.gens):
            diff = gt.maslov - gs.maslov
            if diff % 2:
                continue
            a = diff // 2
            if gt.i - a <= si and gt.j - a <= sj:
                out.append((t, s, a))
    return out


def _chain_map_space(c, kind):
    """Basis of the F2-space of grading-0 chain maps of the given kind.

    Returns (variables, basis masks); each mask selects variables and the
    matrix of a span element is the xor of its selected entries.
    """
    variables = _allowed_entries(c, kind)
    vidx = {v: k for k, v in enumerate(variables)}
    eqs: dict[tuple[int, int, int], int] = {}
    for (t, s, a) in variables:
        bit = 1 << vidx[(t, s, a)]
        for (t2, tt), e in c.diff.items():
            if tt == t:  # d after f
                key = (t2, s, a + e)
                eqs[key] = eqs.get(key, 0) ^ bit
        for (mid, s2), e in c.diff.items():
            if mid == s:  # f after d
                key = (t, s2, a + e)
                eqs[key] = eqs.get(key, 0) ^ bit
    pivots: dict[int, int] = {}
    for row in eqs.values():
        while row:
            low = row & -row
            if low in pivots:
                row ^= pivots[low]
            else:
                pivots[low] = row
                break
    # Gauss-Jordan: clear each pivot bit from every other row, ascending
    for low in sorted(pivots):
        row = pivots[low]
        for low2, row2 in pivots.items():
            if low2 != low and row2 & low:
                pivots[low2] = row2 ^ row
    nv = len(variables)
    basis = []
    for k in range(nv):
        free_bit = 1 << k
        if free_bit in pivots:
            continue
        vec = free_bit
        for low, row in pivots.items():
            if row & free_bit:
                vec |= low
        basis.append(vec)
    return variables, basis


def _mask_to_matrix(variables, mask):
    out: dict[tuple[int, int], int] = {}
    for k, (t, s, a) in enumerate(variables):
        if (mask >> k) & 1:
            add_term(out, (t, s), a)
    return out


def _is_laurent_unimodular(matrix, n):
    # U^shift * matrix has entries in F2[U]; its SNF diagonal is monomial,
    # hence a unit over F2[U, U^-1] wherever it is nonzero
    shift = max((-a for a in matrix.values()), default=0)
    m = up.mat_zero(n, n)
    for (t, s), a in matrix.items():
        m[t][s] = up.mono(a + shift)
    return up.smith_normal_form(m).rank == n


@pytest.mark.slow
def test_c1_involution_unique_up_to_basis_change():
    c = tiny_c1()
    iota = c1_involution(c)
    sigma = sarkar(c)

    skew_vars, skew_basis = _chain_map_space(c, "skew-filtered")
    assert len(skew_basis) <= 20
    for vec in skew_basis:  # nullspace sanity: basis elements commute with d
        f = _mask_to_matrix(skew_vars, vec)
        assert _compose(f, c.diff) == _compose(c.diff, f)
    candidates = []
    for mask in range(1 << len(skew_basis)):
        sel = 0
        for b, vec in enumerate(skew_basis):
            if (mask >> b) & 1:
                sel ^= vec
        f = _mask_to_matrix(skew_vars, sel)
        if _compose(f, f) == sigma:
            candidates.append(f)
    assert iota.matrix in candidates
    assert len(candidates) >= 1

    filt_vars, filt_basis = _chain_map_space(c, "filtered")
    assert len(filt_basis) <= 20
    autos = []
    for mask in range(1 << len(filt_basis)):
        sel = 0
        for b, vec in enumerate(filt_basis):
            if (mask >> b) & 1:
                sel ^= vec
        g = _mask_to_matrix(filt_vars, sel)
        if _is_laurent_unimodular(g, len(c.gens)):
            autos.append(g)
    # every valid involution is conjugate to the model one:
    # g iota = f g for some invertible filtered chain map g
    for f in candidates:
        assert any(
            _compose(g, iota.matrix) == _compose(f, g) for g in autos
        ), "involution not conjugate to the model map"
