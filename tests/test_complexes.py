"""Structure of filtered complexes: staircases, boxes, subquotients.

Staircase and box data are checked against the printed small examples;
random staircases serve as property fodder for the validator, the dual,
and the B0- normalization.
"""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from cfku import upoly as up
from cfku.complexes import (
    Generator,
    _staircase,
    add_shifted,
    build_box,
    build_lspace_staircase,
    build_staircase,
    direct_sum,
    dualize,
    figure_eight_complex,
    from_gens,
    left_trefoil_complex,
    phi_psi,
    right_trefoil_complex,
    sarkar,
    staircase_n_of_k,
    subquotient,
    unknot_complex,
    validate,
)
from cfku.homology import sparse_homology
from test_homology import _dense

steps_strategy = st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=5).map(tuple)
signs = st.sampled_from(["positive", "negative"])


def _arrows(c):
    return {(c.gens[s].label, c.gens[t].label): a for (t, s), a in c.diff.items()}


def test_right_trefoil_shape():
    c = right_trefoil_complex()
    assert _arrows(c) == {("a", "b"): 0, ("a", "c"): 0}
    idx = c.indices()
    a, b, cc = (c.gens[idx[l]] for l in "abc")
    assert (b.i, b.j) == (a.i - 1, a.j) and (cc.i, cc.j) == (a.i, a.j - 1)
    assert validate(c) == []


def test_left_trefoil_shape():
    c = left_trefoil_complex()
    assert _arrows(c) == {("b", "a"): 0, ("c", "a"): 0}


def test_staircase_bad_input():
    with pytest.raises(ValueError):
        build_staircase("both", (1,))
    with pytest.raises(ValueError):
        build_staircase("positive", ())
    with pytest.raises(ValueError):
        build_staircase("positive", (1, 0))


def test_staircase_n_of_k_examples():
    assert staircase_n_of_k((1,)) == 1
    assert staircase_n_of_k((1, 2, 1, 1)) == 2
    assert staircase_n_of_k((1, 2, 1, 1, 1, 1)) == 3


def test_lspace_staircase():
    c, nk = build_lspace_staircase((1,))
    assert nk == 1 and len(c.gens) == 3
    with pytest.raises(ValueError):
        build_lspace_staircase((2, 1))
    with pytest.raises(ValueError):
        build_lspace_staircase(())


def test_box_shape():
    box = build_box((2, 5), suffix="!")
    assert validate(box) == []
    ue = box.gens[box.indices()["ue!"]]
    assert (ue.i, ue.j) == (2, 5)
    from_ab = {k: e for k, e in _arrows(box).items() if k[0] in ("a!", "b!")}
    assert from_ab == {
        ("a!", "b!"): 0, ("a!", "c!"): 0, ("b!", "ue!"): 0
    }


def test_box_acyclic():
    # localized homology of an acyclic box vanishes
    box = build_box((-1, -1))
    sq = subquotient(box)
    m = _dense(sq.diff, len(sq.basis))
    assert len(m) - 2 * up.smith_normal_form(m).rank == 0


def test_generator_is_an_immutable_value():
    g = Generator("x", 3, 1, -2)
    for name in ("label", "maslov", "i", "j"):
        with pytest.raises(AttributeError):
            setattr(g, name, 0)
    same = Generator("x", 3, 1, -2)
    assert g == same and hash(g) == hash(same)
    assert len({g, same}) == 1
    assert g != Generator("x", 3, -2, 1)
    assert (g.i, g.j) == (1, -2)


def test_add_shifted():
    m = {"a": 2, "b": 0}
    add_shifted(m, {"a": 1, "c": 0}, 1)
    assert m == {"b": 0, "c": 1}
    with pytest.raises(ValueError, match="not graded"):
        add_shifted(m, {"c": 0}, 3)


def test_direct_sum_collision():
    with pytest.raises(ValueError):
        direct_sum([build_box((0, 0)), build_box((1, 1))])


def test_direct_sum_validates():
    bad = from_gens(
        [Generator("x", 0, 0, 0), Generator("y", 0, 0, 0)],
        {(1, 0): 0},
    )
    with pytest.raises(ValueError, match="grading law"):
        direct_sum([build_box((0, 0)), bad])


def test_figure_eight_validates():
    assert validate(figure_eight_complex()) == []


def test_dual_of_dual():
    c = figure_eight_complex()
    dd = dualize(dualize(c))
    assert dd.gens == c.gens and dd.diff == c.diff


def test_dual_negates():
    c = right_trefoil_complex()
    d = dualize(c)
    for g, gd in zip(c.gens, d.gens):
        assert (gd.maslov, gd.i, gd.j) == (-g.maslov, -g.i, -g.j)
    assert validate(d) == []


def test_validate_catches_grading_fault():
    c = from_gens(
        [Generator("x", 0, 0, 0), Generator("y", 0, 0, 0)],
        {(1, 0): 0},
    )
    assert any("grading law" in p for p in validate(c))


def test_validate_catches_filtration_fault():
    c = from_gens(
        [Generator("x", 0, 0, 0), Generator("y", -1, 1, 0)],
        {(1, 0): 0},
    )
    assert any("filtration law" in p for p in validate(c))


def test_validate_catches_d_squared():
    c = from_gens(
        [
            Generator("x", 0, 0, 0),
            Generator("y", -1, -1, 0),
            Generator("z", -2, -2, 0),
        ],
        {(1, 0): 0, (2, 1): 0},
    )
    assert validate(c) == ["d^2 != 0: d^2(x) contains z"]
    # a second path from x to z cancels the first over F2
    for col, x in zip((c.names, c.maslov, c.i, c.j), ("w", -1, -1, 0)):
        col.append(x)
    c.diff.update({(3, 0): 0, (2, 3): 0})
    assert validate(c) == []


def test_subquotient_regions():
    c = right_trefoil_complex()
    a0 = subquotient(c)
    assert a0.labels() == ["a", "b", "c"]
    # b and c already sit inside the quadrant, a needs no translate either
    assert [k0 for _g, k0 in a0.basis] == [0, 0, 0]


def test_a0_rejects_a_negative_power():
    # x at (0, 0) enters A0- as itself and y at (5, 5) as U^5 y, so the
    # arrow dx = y, which breaks the filtration law, would need U^-5
    c = from_gens([Generator("x", 1, 0, 0), Generator("y", 0, 5, 5)], {(1, 0): 0})
    message = r"differential does not restrict to A0-: U\^-5 from x to y"
    with pytest.raises(ValueError, match=message):
        subquotient(c)


def test_sarkar_on_box():
    box = build_box((0, 0))
    phi, psi = phi_psi(box)
    comp = sarkar(box)
    idx = box.indices()
    a, ue = idx["a"], idx["ue"]
    assert comp[(ue, a)] == -1
    assert comp[(a, a)] == 0


def test_sarkar_identity_on_staircase():
    c = build_staircase("negative", (1, 2, 1, 1))
    m = sarkar(c)
    assert m == {(k, k): 0 for k in range(len(c.gens))}


def test_unknot():
    c = unknot_complex()
    assert len(c.gens) == 1 and c.diff == {}


def test_complexes_does_not_load_homology():
    # staircase gradings are closed-form, so complexes sits below homology
    src = str(Path(up.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "from cfku.complexes import build_staircase\n"
        "build_staircase('negative', (1, 2))\n"
        "assert 'cfku.homology' not in sys.modules, sorted(sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


@given(signs, steps_strategy)
def test_staircase_properties(sign, steps):
    c = build_staircase(sign, steps)
    assert validate(c) == []
    assert len(c.gens) == 2 * len(steps) + 1
    # transpose symmetry of the two sides
    idx = c.indices()
    for r in range(1, len(steps) + 1):
        g1 = c.gens[idx["z%d_1" % r]]
        g2 = c.gens[idx["z%d_2" % r]]
        assert (g1.i, g1.j) == (g2.j, g2.i) and g1.maslov == g2.maslov
    # B0- normalization puts the tower in grading 0
    h = sparse_homology(*_b0_minus(c))
    assert [g for g, _ in h.free] == [0]


def _b0_minus(c):
    """(diff, maslov) of B0- = C{i<=0}: U^i x for every generator x."""
    diff = {(t, s): c.gens[s].i + a - c.gens[t].i for (t, s), a in c.diff.items()}
    assert all(e >= 0 for e in diff.values())
    return diff, [g.maslov - 2 * g.i for g in c.gens]


def _reference_staircase(sign, step_lengths):
    """_staircase as a walk over labels: generators and arrows are named
    z0, z{r}_{side} and turned into indices through a label dict."""
    v = len(step_lengths)
    lengths = {r: step_lengths[v - r] for r in range(1, v + 1)}

    def is_source(r):
        return (r % 2 == v % 2) == (sign == "negative")

    pos1 = {0: (0, 0)}
    for r in range(1, v + 1):
        i, j = pos1[r - 1]
        pos1[r] = (i, j + lengths[r]) if is_source(r) else (i - lengths[r], j)
    gens, index = [], {}

    def add(label, m, i, j):
        index[label] = len(gens)
        gens.append(Generator(label, m, i, j))

    nk = staircase_n_of_k(step_lengths)
    top = 2 * nk if sign == "negative" else 1 - 2 * nk
    add("z0", top if is_source(0) else top - 1, 0, 0)
    for r in range(1, v + 1):
        m = top if is_source(r) else top - 1
        i, j = pos1[r]
        add("z%d_1" % r, m, i, j)
        add("z%d_2" % r, m, j, i)
    diff = {}

    def arrow(src, tgt):
        diff[(index[tgt], index[src])] = 0

    for r in range(0, v + 1):
        if not is_source(r):
            continue
        if r == 0:
            arrow("z0", "z1_1")
            arrow("z0", "z1_2")
            continue
        for side in (1, 2):
            src = "z%d_%d" % (r, side)
            arrow(src, "z0" if r == 1 else "z%d_%d" % (r - 1, side))
            if r < v:
                arrow(src, "z%d_%d" % (r + 1, side))
    return from_gens(gens, diff)


def test_staircase_by_index_matches_the_label_walk():
    for v in range(1, 6):
        for steps in itertools.product((1, 2, 3), repeat=v):
            for sign in ("positive", "negative"):
                c, ref = _staircase(sign, steps), _reference_staircase(sign, steps)
                assert c.gens == ref.gens, (sign, steps)
                assert list(c.diff.items()) == list(ref.diff.items()), (sign, steps)


@given(signs, steps_strategy)
def test_staircase_dual_round_trip(sign, steps):
    c = build_staircase(sign, steps)
    d = dualize(c)
    assert validate(d) == []
    dd = dualize(d)
    assert dd.gens == c.gens and dd.diff == c.diff
