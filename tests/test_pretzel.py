"""Pretzel models: classification, box counts, rank tables, invariants.

The rank table and the closed-form triple are independent inputs, so the
tests that tie the assembled complex, the generator ledger, and the
computed correction terms together are genuine cross-checks rather than
the same formula evaluated twice.
"""

import ast
import logging
from collections import Counter, defaultdict
from pathlib import Path

import pytest

from cfku import cli, complexes, involution, pretzel
from cfku.complexes import _staircase, build_box, build_staircase, direct_sum, dualize, validate
from cfku.cone import involutive_invariants
from cfku.involution import dual_involution, validate_involution
from cfku.pretzel import (
    PretzelParams,
    box_multiplicities,
    classify,
    compute_invariants,
    expected_alexander,
    expected_hfk,
    full_complex,
    full_involution,
    model_complex,
    model_involution_for,
    model_triple,
    report_dict,
    theorem_values,
)
from cfku.homology import alexander_poly, genus_detect, hfk_hat

SMALL_PAIRS = [(3, 3), (5, 3), (5, 5), (7, 3), (7, 5), (7, 7), (9, 7), (9, 9)]


def test_params_validation():
    with pytest.raises(ValueError):
        PretzelParams(4, 3)
    with pytest.raises(ValueError):
        PretzelParams(5, 4)
    with pytest.raises(ValueError):
        PretzelParams(3, 5)
    with pytest.raises(ValueError):
        PretzelParams(3, 1)


def test_classify_examples():
    spec = classify(PretzelParams(5, 5))
    assert (spec.family, spec.n_of_k, spec.main_diag_boxes) == ("C1", 2, 1)
    assert classify(PretzelParams(7, 5)).family == "C2"
    assert classify(PretzelParams(7, 5)).n_of_k == 3
    assert classify(PretzelParams(7, 7)).family == "C3"
    assert classify(PretzelParams(9, 7)).family == "C4"
    assert classify(PretzelParams(9, 7)).n_of_k == 4
    spec33 = classify(PretzelParams(3, 3))
    assert (spec33.family, spec33.n_of_k, spec33.main_diag_boxes) == ("C3", 1, 0)
    assert box_multiplicities(PretzelParams(3, 3)) == {}
    assert PretzelParams(3, 3).steps == (1, 2)


def test_box_multiplicities_examples():
    assert box_multiplicities(PretzelParams(9, 9)) == {4: 1, -4: 1, 2: 2, -2: 2, 0: 3}
    assert box_multiplicities(PretzelParams(5, 5)) == {0: 1}
    assert box_multiplicities(PretzelParams(7, 5)) == {1: 1, -1: 1}
    assert box_multiplicities(PretzelParams(3, 3)) == {}


def _rank_table_solve(params):
    """Reference box counts: the tridiagonal system of
    pretzel.box_multiplicities, solved from the genus downward."""
    totals = Counter()
    for (w, _k), r in expected_hfk(params).items():
        totals[w] += r
    for (w, _k), r in hfk_hat(build_staircase("negative", params.steps)).items():
        totals[w] -= r
    b = {}
    for w in range(params.g, 0, -1):
        need = totals[w] - 2 * b.get(w, 0) - b.get(w + 1, 0)
        assert need >= 0, (params, w)
        if need:
            b[w - 1] = need
    for s, count in list(b.items()):
        if s > 0:
            b[-s] = count
    assert totals[0] == b.get(-1, 0) + 2 * b.get(0, 0) + b.get(1, 0)
    return b


def test_box_multiplicities_match_rank_table_solve():
    for m in range(3, 22, 2):
        for n in range(3, m + 1, 2):
            params = PretzelParams(m, n)
            assert box_multiplicities(params) == _rank_table_solve(params), (m, n)


def test_wrong_box_counts_fail_only_the_rank_table_check(monkeypatch, capsys):
    # same generator count and main-diagonal parity as the true {3: 1, 1: 2}
    wrong = {3: 1, -3: 1, 1: 1, -1: 1, 0: 2}
    monkeypatch.setattr(pretzel, "box_multiplicities", lambda p: dict(wrong))
    checks = report_dict(9, 7, False, deep=True)["checks"]
    assert checks["theorem_match"] is True
    assert checks["count_match"] is True
    assert checks["hfk_match"] is False
    assert cli.main(["invariants", "-m", "9", "-n", "7"]) == cli.MISMATCH_ERROR
    assert "MISMATCH" in capsys.readouterr().out


def test_classify_rejects_wrong_main_diagonal_parity(monkeypatch):
    monkeypatch.setattr(pretzel, "box_multiplicities", lambda p: {0: 2})
    with pytest.raises(ValueError, match="parity"):
        classify(PretzelParams(5, 5))


def test_expected_hfk_examples():
    table = expected_hfk(PretzelParams(9, 9))
    assert table[(9, 18)] == 1
    assert table[(8, 17)] == 1
    assert table[(4, 12)] == 3
    assert (7, 15) not in table  # the i = g - 2 gap
    assert table[(-9, 0)] == 1
    # symmetry of the whole table
    for (w, k), rank in table.items():
        assert table.get((-w, k - 2 * w)) == rank


def test_expected_alexander_examples():
    alex = expected_alexander(PretzelParams(7, 5))
    assert sum(alex.values()) == 1
    assert all(alex.get(-w) == c for w, c in alex.items())
    assert max(alex) == 6


def test_closed_forms_settle_symmetry_and_genus():
    # deep_checks reads neither the symmetry of a polynomial equal to
    # expected_alexander nor the genus of a table equal to expected_hfk
    for m in range(3, 152, 2):
        for n in range(3, m + 1, 2):
            params = PretzelParams(m, n)
            alex = expected_alexander(params)
            assert [*alex] == sorted(alex) == [-e for e in reversed(alex)], (m, n)
            assert [*alex.values()] == [*reversed(alex.values())], (m, n)
            assert sum(alex.values()) == 1, (m, n)
            assert genus_detect(expected_hfk(params)) == params.g, (m, n)


def test_full_complex_matches_rank_table():
    for m, n in SMALL_PAIRS:
        params = PretzelParams(m, n)
        c = full_complex(params)
        assert validate(c) == []
        assert len(c.gens) == 4 + (m - 2) * (n - 2)
        table = hfk_hat(c)
        assert table == expected_hfk(params)
        assert alexander_poly(table) == expected_alexander(params)
        assert genus_detect(table) == params.g


# ---------------------------------------------------------------------------
# GMM generator ledger


def gmm_ledger(params):
    """Published generator list: (label, (i, j), exceptional or ordinary).

    Positions use i-offset 0, with m' = (m-3)/2, n' = (n-3)/2 and the
    anchors gamma, delta of the published list.  The x_{2p,2q+1} line
    (p >= 1) is recorded as printed but its filtration levels are not
    trusted; the ledger is a counting and exceptional-position
    cross-check only.  Its length, (2n'+1)(2m'+1) + 4, is
    4 + (m-2)(n-2) for every pair, the count that count_match checks.
    """
    g = params.g
    ga = 1 - (g - 1) // 2 if g % 2 else 1 - g // 2
    de = (g - 1) // 2 if g % 2 else g // 2 - 1
    mp, np_ = (params.m - 3) // 2, (params.n - 3) // 2
    out = [
        ("y1", (ga - 1, de + 1), "exceptional"),
        ("y2", (ga - 1, de), "exceptional"),
        ("y3", (de, ga - 1), "exceptional"),
        ("y4", (de + 1, ga - 1), "exceptional"),
    ]
    for p in range(0, np_ + 1):
        for q in range(0, mp + 1):
            out.append(
                ("x_%d_%d" % (2 * p + 1, 2 * q + 1), (ga + p + q + 1, de - p - q), "ordinary")
            )
    for p in range(0, np_ + 1):
        for q in range(1, mp + 1):
            out.append(
                ("x_%d_%d" % (2 * p + 1, 2 * q), (ga + p + q, de - p - q), "ordinary")
            )
    for p in range(1, np_ + 1):
        for q in range(0, mp + 1):
            out.append(
                ("x_%d_%d" % (2 * p, 2 * q + 1), (ga + mp + p - q, de - mp - p - q), "ordinary")
            )
    for p in range(1, np_ + 1):
        for q in range(1, mp + 1):
            out.append(
                ("x_%d_%d" % (2 * p, 2 * q), (ga + mp + p - q, de - mp - p + q - 1), "ordinary")
            )
    return out


def test_ledger_counts_and_positions():
    params = PretzelParams(5, 5)
    ledger = gmm_ledger(params)
    assert len(ledger) == 4 + 3 * 3
    pos = {lab: p for lab, p, _kind in ledger}
    assert pos["y2"] == (-2, 2)
    assert pos["y2"][1] - pos["y2"][0] == 4  # on the line j - i = v
    kinds = Counter(kind for _lab, _p, kind in ledger)
    assert kinds["exceptional"] == 4


def test_ledger_plane_multiset_property():
    """Unflagged ledger positions sit inside the assembled complex.

    After the diagonal shift aligning the ledger's y1 with the top
    staircase corner, every unflagged ledger position appears among the
    generator positions, and the leftover complex positions are exactly
    as many as the flagged ledger lines.
    """
    for m, n in SMALL_PAIRS:
        params = PretzelParams(m, n)
        c = full_complex(params)
        v = classify(params).v
        zpos = next((g.i, g.j) for g in c.gens if g.label == "z%d_1" % v)
        ledger = gmm_ledger(params)
        y1 = next(p for lab, p, _ in ledger if lab == "y1")
        t = zpos[0] - y1[0]
        assert zpos[1] - y1[1] == t  # the shift is diagonal
        # the x_{2p,2q+1} lines (p >= 1) whose printed levels are not trusted
        flagged = {
            "x_%d_%d" % (2 * p, 2 * q + 1)
            for p in range(1, (n - 3) // 2 + 1)
            for q in range(0, (m - 3) // 2 + 1)
        }
        cpos = Counter((g.i, g.j) for g in c.gens)
        lpos = Counter(
            (i + t, j + t) for lab, (i, j), _ in ledger if lab not in flagged
        )
        assert not (lpos - cpos)  # ledger fits inside the complex
        assert sum((cpos - lpos).values()) == len(flagged)


def test_theorem_values_examples():
    assert theorem_values(PretzelParams(5, 5)).triple == (0, 0, -2)
    assert theorem_values(PretzelParams(5, 5), mirrored=True).triple == (2, 3, 2)
    assert theorem_values(PretzelParams(7, 5), mirrored=True).triple == (3, 3, 3)
    assert theorem_values(PretzelParams(7, 7), mirrored=True).triple == (3, 3, 3)
    assert theorem_values(PretzelParams(9, 7)).triple == (0, 0, -4)


def test_computed_matches_theorem_small():
    for m, n in SMALL_PAIRS:
        params = PretzelParams(m, n)
        for mirrored in (False, True):
            got = compute_invariants(params, mirrored)
            assert got.triple == theorem_values(params, mirrored).triple, (m, n, mirrored)


def test_full_pipeline_equals_model_pipeline():
    for m, n in [(3, 3), (5, 3), (5, 5), (7, 5), (7, 7), (9, 7)]:
        params = PretzelParams(m, n)
        for mirrored in (False, True):
            a = compute_invariants(params, mirrored, use_full=False)
            b = compute_invariants(params, mirrored, use_full=True)
            assert a.triple == b.triple, (m, n, mirrored)


def test_involutions_validate():
    for m, n in SMALL_PAIRS:
        params = PretzelParams(m, n)
        c = model_complex(params)
        assert validate_involution(model_involution_for(params, c)) == []
        f = full_complex(params)
        fi = full_involution(params, f)
        assert validate_involution(fi) == []
        d = dualize(f)
        assert validate_involution(dual_involution(fi, d)) == []


def test_report_dict_shape():
    rep = report_dict(5, 5, mirrored=True, deep=True)
    assert rep["family"] == "C1" and rep["nK"] == 2
    assert rep["boxes"] == [{"diagonal": 0, "count": 1}]
    assert (rep["V0"], rep["V0_lower"], rep["V0_upper"]) == (2, 3, 2)
    assert all(rep["checks"].values())
    shallow = report_dict(5, 5, mirrored=True, deep=False)
    assert set(shallow["checks"]) == {"theorem_match"}
    assert "diagnostics" not in rep and "diagnostics" not in shallow


def test_mismatch_diagnostics_name_the_first_difference(monkeypatch, capsys):
    def one_rank_off(params):
        table = expected_hfk(params)
        table[(1, 5)] += 1
        return table

    monkeypatch.setattr(pretzel, "expected_hfk", one_rank_off)
    rep = report_dict(5, 5, False, deep=True)
    assert [name for name, ok in rep["checks"].items() if not ok] == ["hfk_match"]
    assert rep["diagnostics"] == {
        "expected": [0, 0, -2],
        "computed": [0, 0, -2],
        "hfk": {"alexander": 1, "maslov": 5, "expected": 3, "computed": 2},
        "alexander": None,
        "count": None,
    }
    assert cli.main(["invariants", "-m", "5", "-n", "5"]) == cli.MISMATCH_ERROR
    assert capsys.readouterr().out.split("verdict: MISMATCH\n")[1].splitlines() == [
        "    expected (V0, lower V0, upper V0) = (0, 0, -2)",
        "    computed (V0, lower V0, upper V0) = (0, 0, -2)",
        "    first hfk difference at (alexander, maslov) = (1, 5): "
        "expected rank 3, computed 2",
    ]

    def shifted_constant_term(params):
        poly = expected_alexander(params)
        poly[0] += 2
        return poly

    monkeypatch.setattr(pretzel, "expected_alexander", shifted_constant_term)
    rep = report_dict(5, 5, False, deep=True)
    assert rep["diagnostics"]["alexander"] == {"exponent": 0, "expected": 5, "computed": 3}


def test_wrong_box_count_is_a_failed_check(monkeypatch, capsys):
    # the true counts are {3: 1, -3: 1, 1: 2, -1: 2}: 39 generators, not 31
    monkeypatch.setattr(pretzel, "box_multiplicities", lambda p: {3: 1, -3: 1, 1: 1, -1: 1})
    rep = report_dict(9, 7, False, deep=True)
    assert rep["checks"]["count_match"] is False
    assert rep["diagnostics"]["count"] == {"expected": 39, "computed": 31}
    assert cli.main(["invariants", "-m", "9", "-n", "7"]) == cli.MISMATCH_ERROR
    out = capsys.readouterr().out
    assert "  count_match      MISMATCH\n" in out
    assert out.endswith("    generator count: expected 39, computed 31\n")
    with pytest.raises(ValueError, match="full complex has 31 generators, expected 39"):
        full_complex(PretzelParams(9, 7))


def test_shallow_mismatch_diagnostics_hold_the_triples(monkeypatch):
    # report_dict reads the knot's triple off model_triple, as
    # compute_invariants does
    real = model_triple
    monkeypatch.setattr(
        pretzel, "model_triple",
        lambda steps, coupled: ((0, 0, 7), real(steps, coupled)[1]),
    )
    rep = report_dict(5, 5, False, deep=False)
    assert rep["checks"] == {"theorem_match": False}
    assert rep["diagnostics"] == {"expected": [0, 0, -2], "computed": [0, 0, 7]}


# ---------------------------------------------------------------------------
# Validate once; one model computation per key


def _counting_validate(monkeypatch):
    calls = []
    real = complexes.validate

    def counting(c):
        calls.append(len(c.gens))
        return real(c)

    monkeypatch.setattr(complexes, "validate", counting)
    return calls


def _counting_validate_involution(monkeypatch):
    calls = []
    real = involution.validate_involution

    def counting(iota):
        calls.append(len(iota.complex.gens))
        return real(iota)

    monkeypatch.setattr(involution, "validate_involution", counting)
    return calls


def test_each_pretzel_complex_is_validated_once(monkeypatch):
    # each distinct piece once per process: the staircase of the steps,
    # each head, the box and the square pair; never a whole complex
    _clear_memos()
    calls = _counting_validate(monkeypatch)
    iota_calls = _counting_validate_involution(monkeypatch)
    params = PretzelParams(9, 9)  # C1
    stair = 2 * len(params.steps) + 1
    c = full_complex(params)
    assert calls == [stair, stair + 4, 4] and len(c.gens) == 53
    assert iota_calls == [stair + 4]  # the C1 head
    calls.clear()
    iota_calls.clear()
    for mirrored in (False, True):
        compute_invariants(params, mirrored, use_full=True)
    # the model is the head, which model_triple builds outside _head's memo
    compute_invariants(params, mirrored=True)
    assert (calls, iota_calls) == ([8, stair + 4], [8, stair + 4])  # the square pair, the head
    calls.clear()
    iota_calls.clear()
    eleven_seven = PretzelParams(11, 7)  # C3, the same steps
    full_involution(eleven_seven, full_complex(eleven_seven))
    compute_invariants(eleven_seven, use_full=True)
    assert (calls, iota_calls) == ([], [stair])  # the uncoupled head
    iota_calls.clear()
    c = model_complex(PretzelParams(5, 5))  # C1: staircase plus box
    assert calls == [9, 13] and len(c.gens) == 9 + 4
    calls.clear()
    c = model_complex(PretzelParams(7, 5))  # C2: the staircase alone
    assert calls == [len(c.gens)]
    calls.clear()
    model_complex(PretzelParams(7, 5))
    assert calls == []


def test_block_path_validates_the_staircase_and_one_box(monkeypatch):
    _clear_memos()
    calls = _counting_validate(monkeypatch)
    params = PretzelParams(9, 9)
    _table, count = pretzel.block_hfk(params)
    assert calls == [2 * len(params.steps) + 1, 4]
    calls.clear()
    pretzel.block_hfk(PretzelParams(7, 5))  # the box is validated once per process
    assert calls == [2 * len(PretzelParams(7, 5).steps) + 1]
    calls.clear()
    pretzel.block_hfk(PretzelParams(11, 7))  # the staircase of 9 + 9, once per steps
    assert calls == []
    assert count == len(full_complex(params).gens)


def _clear_memos():
    """Empty every per-process memo of cfku.pretzel."""
    for memo in _MEMOS:
        memo.cache_clear()


_MEMOS = (
    model_triple,
    pretzel._head,
    pretzel._pair,
    pretzel._staircase_piece,
    pretzel._box,
    pretzel._staircase_table,
    pretzel._box_table,
    pretzel._steps_n_of_k,
)


def test_every_memo_is_cleared():
    # a memo of cfku.pretzel missing from _MEMOS would survive _clear_memos
    memos = {value for value in vars(pretzel).values() if hasattr(value, "cache_clear")}
    assert memos == set(_MEMOS)


def test_memos_hand_out_fresh_values():
    params = PretzelParams(9, 7)
    mults = box_multiplicities(params)
    want = dict(mults)
    mults[99] = 1
    mults[3] += 5
    assert box_multiplicities(params) == want
    assert classify(params).boxes == want
    table, count = pretzel.block_hfk(params)
    want_table = dict(table)
    table[(0, 0)] = 7
    table.clear()
    assert pretzel.block_hfk(params) == (want_table, count)


def _memos_hold(memos=_MEMOS[:7]):
    return [memo.cache_info().currsize for memo in memos]


def test_failed_staircase_is_not_remembered(monkeypatch):
    _clear_memos()
    params = PretzelParams(9, 9)
    monkeypatch.setattr(complexes, "validate", lambda c: ["broken"])
    for call in (
        lambda: pretzel.block_hfk(params),
        lambda: compute_invariants(params, mirrored=True),
        lambda: compute_invariants(params, mirrored=True, use_full=True),
    ):
        for _ in range(2):
            with pytest.raises(ValueError, match=r"staircase invalid: \['broken'\]"):
                call()
    assert _memos_hold() == [0] * 7
    monkeypatch.undo()
    calls = _counting_validate(monkeypatch)
    table = pretzel.block_hfk(params)
    assert calls == [2 * len(params.steps) + 1, 4]  # validated now, then kept
    full = full_complex(params)
    assert table == (hfk_hat(full), len(full.gens))


def test_failed_involution_piece_is_not_remembered(monkeypatch):
    _clear_memos()
    params = PretzelParams(9, 9)
    real = involution.validate_involution
    monkeypatch.setattr(involution, "validate_involution", lambda iota: ["broken"])
    for _ in range(2):  # the C1 head fails: only its staircase, valid, is kept
        with pytest.raises(ValueError, match=r"invalid involution: \['broken'\]"):
            compute_invariants(params, mirrored=True, use_full=True)
        with pytest.raises(ValueError, match=r"invalid involution: \['broken'\]"):
            compute_invariants(params, mirrored=True)
    assert _memos_hold() == [0, 0, 0, 1, 0, 0, 0]
    # only the square pair, on its 8 generators, fails: the head and the
    # box are valid and kept, the pair is not
    monkeypatch.setattr(
        involution, "validate_involution",
        lambda iota: ["broken"] if len(iota.complex.gens) == 8 else real(iota),
    )
    for _ in range(2):
        with pytest.raises(ValueError, match=r"invalid involution: \['broken'\]"):
            compute_invariants(params, mirrored=True, use_full=True)
    assert pretzel._pair.cache_info().currsize == 0
    monkeypatch.undo()
    iota_calls = _counting_validate_involution(monkeypatch)
    got = compute_invariants(params, mirrored=True, use_full=True)
    assert got.triple == theorem_values(params, mirrored=True).triple
    assert iota_calls == [8]


def test_reports_do_not_depend_on_warm_memos():
    pairs = [(m, n) for m in range(3, 22, 2) for n in range(3, m + 1, 2)]
    assert len(pairs) == 55
    cold = {}
    for m, n in pairs:
        for mirrored in (False, True):
            _clear_memos()
            cold[m, n, mirrored] = report_dict(m, n, mirrored)
    warm = {(m, n, mi): report_dict(m, n, mi) for m, n in pairs for mi in (False, True)}
    assert warm == cold
    assert all(all(r["checks"].values()) for r in cold.values())


def test_reports_keep_no_head():
    # model_triple keeps the triples; the head it reduces is not kept
    _clear_memos()
    for m in range(3, 22, 2):
        for n in range(3, m + 1, 2):
            for mirrored in (False, True):
                report_dict(m, n, mirrored)
    assert pretzel._head.cache_info().currsize == 0
    assert model_triple.cache_info().currsize == 27


def _whole_complex_checks(params):
    full = full_complex(params)
    return pretzel.deep_checks(params, hfk_hat(full), len(full.gens))


def test_block_path_equals_the_whole_complex():
    for m in range(3, 22, 2):
        for n in range(3, m + 1, 2):
            params = PretzelParams(m, n)
            full = full_complex(params)
            assert pretzel.block_hfk(params) == (hfk_hat(full), len(full.gens)), (m, n)


@pytest.mark.parametrize("m, n", [(41, 41), (43, 39), (61, 3), (61, 57)])
def test_block_path_equals_the_whole_complex_beyond_21(m, n):
    # C1 with m = n, C3 with (n - 3)/2 boxes on each of diagonals 2, 0 and
    # -2, the staircase alone (n = 3), and C1 with m > n; up to 3,249
    # generators, where the exhaustive test stops at m = 21
    params = PretzelParams(m, n)
    full = full_complex(params)
    assert len(full.maslov) == 4 + (m - 2) * (n - 2)
    assert pretzel.block_hfk(params) == (hfk_hat(full), len(full.maslov))


def test_a_report_classifies_its_pair_once_and_counts_its_boxes_once(monkeypatch):
    calls = Counter()

    def counted(name):
        real = getattr(pretzel, name)

        def call(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(pretzel, name, call)

    for name in ("classify", "box_multiplicities"):
        counted(name)
    for warm in (False, True):
        for m, n in [(5, 5), (9, 7), (21, 3), (21, 19)]:
            for mirrored in (False, True):
                for deep in (False, True):
                    if not warm:
                        _clear_memos()
                    calls.clear()
                    rep = report_dict(m, n, mirrored, deep=deep)
                    assert all(rep["checks"].values())
                    assert calls == {"classify": 1, "box_multiplicities": 1}, (m, n, mirrored, deep)


def test_only_classify_counts_boxes():
    # every caller of cfku gets its box counts checked for parity
    callers = []
    for path in sorted(Path(pretzel.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                callers += [
                    (path.name, fn.name) for node in ast.walk(fn)
                    if isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None))
                    == "box_multiplicities"
                ]
    assert callers == [("pretzel.py", "classify")]


def test_block_moved_off_its_diagonal_fails_both_paths_alike(monkeypatch):
    params = PretzelParams(9, 9)
    real = pretzel.box_layout(8, box_multiplicities(params))
    assert real.blocks[0] == ((-3, 1), 8, 1)  # diagonal 4, with its mirror on -4
    # to diagonal 5 and -5, where no other box sits, so labels stay unique
    moved = real._replace(blocks=(((-3, 2), 8, 1),) + real.blocks[1:])
    layout = pretzel.box_layout
    monkeypatch.setattr(
        pretzel, "box_layout", lambda v, b: moved if layout(v, b) == real else layout(v, b)
    )
    rep = report_dict(9, 9, False, deep=True)
    checks, diagnostics = _whole_complex_checks(params)
    assert checks["hfk_match"] is False and checks["count_match"] is True
    assert {k: v for k, v in rep["checks"].items() if k != "theorem_match"} == checks
    assert {k: v for k, v in rep["diagnostics"].items() if k in diagnostics} == diagnostics
    assert diagnostics["hfk"] is not None and diagnostics["count"] is None


# ---------------------------------------------------------------------------
# Checks by blocks: the full complex and its involution from validated pieces


def test_block_checks_accept_what_the_whole_validators_accept():
    pairs = [(m, n) for m in range(3, 22, 2) for n in range(3, m + 1, 2)]
    assert len(pairs) == 55
    for m, n in pairs:
        params = PretzelParams(m, n)
        c = full_complex(params)
        iota = full_involution(params, c)
        assert validate(c) == [], (m, n)
        assert validate_involution(iota) == [], (m, n)
        d = dualize(c)
        assert validate_involution(dual_involution(iota, d)) == [], (m, n)


_OFFSETS = {  # (coupled, paired) of the layouts the broken inputs start from
    (9, 9): (41, (17, 21, 25, 29, 33, 37, 45, 49)),
    (11, 7): (None, (17, 21, 25, 29, 33, 37, 41, 45)),
}


def _broken_full(params, change):
    """The full complex of params and its involution matrix, with change
    applied.  Both pairs have 8 steps a side, so the staircase sits at
    0..16 and the pairs (17, 21), (25, 29) and (33, 37) follow; then the
    C1 pair (9, 9) has its C1 box at 41 and the main-diagonal pair
    (45, 49), the C3 pair (11, 7) only the main-diagonal pair (41, 45)."""
    layout = pretzel.box_layout(8, classify(params).boxes)
    assert (layout.coupled, layout.paired) == _OFFSETS[params.m, params.n]
    c = full_complex(params)
    rules = dict(full_involution(params, c).matrix)
    change(c, rules)
    return c, rules


def _shift(c, k, dm=0, di=0, dj=0):
    c.maslov[k] += dm
    c.i[k] += di
    c.j[k] += dj


def _c3(layout_of=(11, 7)):
    """Make a change of test_block_checks_name_the_broken_block to the C3
    pair (11, 7), checked against the layout of the pair layout_of."""

    def mark(change):
        change.pair, change.layout_of = (11, 7), layout_of
        return change

    return mark


@_c3()
def _c3_pair_entry_dropped(c, f):  # a1 -> a2 of the main-diagonal pair
    f.pop((45, 41))


@_c3()
def _c3_staircase_generator_shifted(c, f):
    _shift(c, 3, dm=2)


@_c3()
def _c3_main_diagonal_mirror_regraded(c, f):
    for k in range(45, 49):
        _shift(c, k, dm=2)


@_c3()
def _c3_coupling_entry_added(c, f):  # a -> z0 of a C1 coupling on the box at 41
    f[(0, 41)] = 0


@_c3(layout_of=(9, 9))
def _c3_checked_against_a_c1_layout(c, f):
    pass


_HEAD_D = "the differential of the head is not the validated head's"
_HEAD_IOTA = "iota on the head is not the validated reflection and C1 coupling"


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda c, f: _shift(c, 22, dm=2), "the box at 21 is not the validated box translated"),
        (lambda c, f: c.diff.pop((20, 18)), "the box at 17 lacks an arrow of the validated box"),
        (  # from c of the box at 17 to ue of the box at 21
            lambda c, f: c.diff.update({(24, 19): 0}),
            "the differential has 1 entries outside the blocks",
        ),
        (
            lambda c, f: [_shift(c, k, dm=2) for k in range(29, 33)],
            "the mirror at 29 of the box at 25 has another grading",
        ),
        (
            lambda c, f: [_shift(c, k, di=1, dj=-1) for k in range(33, 37)],
            "the pair at 33, 37 is not at mirrored corners",
        ),
        (lambda c, f: f.pop((29, 25)), "iota on the pair at 25, 29 is not square_pair's"),
        (lambda c, f: f.update({(46, 17): 0}), "iota has 1 entries outside the blocks"),
        (lambda c, f: f.pop((44, 0)), _HEAD_IOTA),  # z0 -> U^-1 ue of the C1 box
        (lambda c, f: f.pop((0, 41)), _HEAD_IOTA),  # a -> z0
        (
            lambda c, f: [_shift(c, k, dm=2, di=1, dj=1) for k in range(41, 45)],
            "the C1 box at 41 is not the validated head's",
        ),
        (lambda c, f: _shift(c, 3, dm=2), "the staircase is not the validated head's"),
        (lambda c, f: c.diff.pop((5, 3)), _HEAD_D),
        (lambda c, f: c.diff.pop((44, 42)), _HEAD_D),
        (_c3_pair_entry_dropped, "iota on the pair at 41, 45 is not square_pair's"),
        (_c3_staircase_generator_shifted, "the staircase is not the validated head's"),
        (
            _c3_main_diagonal_mirror_regraded,
            "the mirror at 45 of the box at 41 has another grading",
        ),
        (_c3_coupling_entry_added, "iota has 1 entries outside the blocks"),
        (_c3_checked_against_a_c1_layout, "the layout has 53 generators, the complex 49"),
    ],
)
def test_block_checks_name_the_broken_block(change, message):
    pair = getattr(change, "pair", (9, 9))
    params = PretzelParams(*pair)
    c, rules = _broken_full(params, change)
    layout_of = PretzelParams(*getattr(change, "layout_of", pair))
    layout = pretzel.box_layout(8, classify(layout_of).boxes)
    with pytest.raises(ValueError, match=message):
        pretzel._check_layout(c, params.steps, layout, rules)
    if c != full_complex(params):
        with pytest.raises(ValueError, match=message):  # full_involution checks c too
            full_involution(params, c)


def test_block_checks_reject_a_complex_of_another_size():
    params = PretzelParams(9, 9)
    c = full_complex(params)
    complexes.add_box(c, (-1, -1), params.g - 1, "_extra")
    with pytest.raises(ValueError, match="the layout has 53 generators, the complex 57"):
        full_involution(params, c)


def test_model_involution_is_checked_by_blocks():
    # the C3 model (11, 7) is the staircase at 0..16 alone; the C1 model
    # (9, 9) adds its box at 17
    params = PretzelParams(11, 7)
    c = model_complex(params)
    _shift(c, 3, dm=2)
    with pytest.raises(ValueError, match="the staircase is not the validated head's"):
        model_involution_for(params, c)
    params = PretzelParams(9, 9)
    c = model_complex(params)
    for k in range(17, 21):
        _shift(c, k, dm=2)
    with pytest.raises(ValueError, match="the C1 box at 17 is not the validated head's"):
        model_involution_for(params, c)


def test_model_involution_validates_nothing_once_the_head_is_kept(monkeypatch):
    _clear_memos()
    iota_calls = _counting_validate_involution(monkeypatch)
    for m, n in ((9, 9), (11, 7), (5, 5), (7, 5)):
        params = PretzelParams(m, n)
        c = model_complex(params)  # _head's memo now holds the model
        iota_calls.clear()
        iota = model_involution_for(params, c)
        assert iota_calls == [], (m, n)
        spec = classify(params)
        whole = pretzel.layout_involution(c, spec.v, {0: spec.main_diag_boxes})
        assert iota.matrix == whole.matrix, (m, n)


def _summed_full_complex(params):
    """The full complex as direct_sum of separately built summands: the
    staircase, then each diagonal s >= 0 from the top, each box of it
    at corner (ci, cj) and, off the main diagonal, its mirror."""
    parts = [_staircase("negative", params.steps)]
    mults = box_multiplicities(params)
    for s in sorted((s for s in mults if s >= 0), reverse=True):
        ci = -1 - s // 2
        cj = s + ci
        ma = ci + cj + params.g + 1
        for t in range(1, mults[s] + 1):
            if s == 0:
                parts.append(build_box((ci, cj), a_maslov=ma, suffix="_d%d" % t))
            else:
                parts.append(build_box((ci, cj), a_maslov=ma, suffix="_p%d_%d" % (s, t)))
                parts.append(build_box((cj, ci), a_maslov=ma, suffix="_m%d_%d" % (s, t)))
    return direct_sum(parts)


def test_full_complex_assembled_in_place_equals_the_direct_sum():
    # and the C1 model complex: its staircase, then the box at (-1, -1);
    # the full complex's layout names its boxes' a generators and blocks
    cases = []
    for m in range(3, 22, 2):
        for n in range(3, m + 1, 2):
            params = PretzelParams(m, n)
            c, ref = full_complex(params), _summed_full_complex(params)
            cases.append((params, c, ref))
            layout = pretzel.box_layout(len(params.steps), box_multiplicities(params))
            labels = [g.label for g in c.gens]
            d1 = labels.index("a_d1") if box_multiplicities(params).get(0, 0) % 2 else None
            a = tuple(k for k, label in enumerate(labels) if label.startswith("a_") and k != d1)
            assert (layout.coupled, layout.paired) == (d1, a), (m, n)
            assert layout.size == 4 + (m - 2) * (n - 2), (m, n)
            blocks = Counter()  # (corner, grading of a) -> boxes, from the top
            for g in ref.gens:
                if g.label.startswith(("a_p", "a_d")):
                    blocks[(g.i - 1, g.j - 1), g.maslov] += 1
            assert layout.blocks == tuple((at, ma, k) for (at, ma), k in blocks.items()), (m, n)
            if classify(params).family == "C1":
                box = build_box((-1, -1), a_maslov=params.g - 1)
                ref = direct_sum([_staircase("negative", params.steps), box])
                cases.append((params, model_complex(params), ref))
    assert len(cases) == 55 + 15
    for params, c, ref in cases:
        assert c.gens == ref.gens, params
        assert list(c.diff.items()) == list(ref.diff.items()), params


def test_full_complex_names_are_unique_and_those_of_the_direct_sum():
    # names are derived from the layout, so their uniqueness is a property
    # of the formatter, checked here rather than by _check_layout
    for m in range(3, 22, 2):
        for n in range(3, m + 1, 2):
            params = PretzelParams(m, n)
            names = full_complex(params).labels()
            assert len(set(names)) == len(names), (m, n)
            assert names == _summed_full_complex(params).labels(), (m, n)


def test_answer_path_reads_no_gens(monkeypatch):
    def raises(what):
        def read(*_args):
            raise AssertionError("the answer path read " + what)

        return read

    pairs = [PretzelParams(21, 19), PretzelParams(21, 21)]
    built = [(p, full_complex(p)) for p in pairs]
    built = [(p, c, full_involution(p, c)) for p, c in built]
    _clear_memos()  # so the pieces are built and validated under the patch
    monkeypatch.setattr(complexes.FilteredComplex, "gens", property(raises("gens")))
    monkeypatch.setattr(complexes, "Generator", raises("a Generator"))
    monkeypatch.setattr(pretzel, "_full_names", raises("the full complex's names"))
    for params, c, iota in built:
        for mirrored in (False, True):
            want = theorem_values(params, mirrored).triple
            for use_full in (False, True):
                assert compute_invariants(params, mirrored, use_full).triple == want
            report = report_dict(params.m, params.n, mirrored)
            assert all(report["checks"].values()), (params, mirrored)
        assert involutive_invariants(c, iota) == theorem_values(params).triple


def test_dual_of_dual_is_the_complex():
    for m in range(3, 22, 2):
        for n in range(3, m + 1, 2):
            params = PretzelParams(m, n)
            for c in (model_complex(params), full_complex(params)):
                assert dualize(dualize(c)) == c, (m, n)


def test_classify_carries_the_box_counts():
    for m, n in SMALL_PAIRS:
        params = PretzelParams(m, n)
        assert classify(params).boxes == box_multiplicities(params)


def _model_key(params):
    """What defines the model: its steps and whether it carries the C1 box."""
    return params.steps, classify(params).family == "C1"


def test_c1_model_box_sits_at_g_minus_one():
    # the model key holds no grading: the C1 box's a, four generators
    # from the end, sits at Maslov g - 1, which is len(steps)
    seen = 0
    for m in range(3, 22, 2):
        for n in range(3, m + 1, 2):
            params = PretzelParams(m, n)
            if classify(params).family == "C1":
                a = model_complex(params).gens[-4]
                assert a.label == "a"
                assert a.maslov == params.g - 1 == len(params.steps), (m, n)
                seen += 1
    assert seen == 15


def _pairs_by_key(m_max):
    classes = defaultdict(list)
    for m in range(3, m_max + 1, 2):
        for n in range(3, m + 1, 2):
            params = PretzelParams(m, n)
            classes[_model_key(params)].append(params)
    return classes


def test_model_triple_matches_an_uncached_run():
    model_triple.cache_clear()
    for m in range(3, 42, 2):
        for n in range(3, m + 1, 2):
            params = PretzelParams(m, n)
            c = model_complex(params)
            iota = model_involution_for(params, c)
            d = dualize(c)
            fresh = (
                involutive_invariants(c, iota),
                involutive_invariants(d, dual_involution(iota, d)),
            )
            assert model_triple(*_model_key(params)) == fresh, (m, n)
            for mirrored in (False, True):
                want = fresh[mirrored]
                assert compute_invariants(params, mirrored).triple == want, (m, n, mirrored)
    assert model_triple.cache_info().currsize == len(_pairs_by_key(41))


def test_pairs_sharing_a_key_build_identical_models():
    classes = _pairs_by_key(41)
    assert (len(_pairs_by_key(21)), len(classes)) == (27, 57)
    for key, members in classes.items():
        built = []
        for params in members:
            c = model_complex(params)
            iota = model_involution_for(params, c)
            built.append(([tuple(g) for g in c.gens], c.diff, iota.matrix))
        assert all(b == built[0] for b in built), key


def test_theorem_triple_is_constant_on_each_key():
    for key, members in _pairs_by_key(41).items():
        for mirrored in (False, True):
            triples = {theorem_values(p, mirrored).triple for p in members}
            assert len(triples) == 1, (key, mirrored, triples)


def test_classify_runs_on_every_call_to_the_memo(monkeypatch, caplog):
    model_triple.cache_clear()
    with caplog.at_level(logging.DEBUG, logger="cfku.cone"):
        compute_invariants(PretzelParams(7, 5))
        compute_invariants(PretzelParams(9, 3))  # same steps, also no box
        compute_invariants(PretzelParams(9, 3), mirrored=True)  # reduced with the knot
    assert model_triple.cache_info()[:2] == (2, 1)  # hits, misses
    # one model, reduced once in each chirality
    assert [r.getMessage()[:4] for r in caplog.records] == ["A0-:", "A0-:"]
    monkeypatch.setattr(pretzel, "box_multiplicities", lambda p: {0: 1})
    with pytest.raises(ValueError, match="parity"):
        compute_invariants(PretzelParams(7, 5))


def test_sweep_reports_do_not_depend_on_case_order():
    cases = [
        (m, n, mirrored, not mirrored)
        for m in range(3, 22, 2)
        for n in range(3, m + 1, 2)
        for mirrored in (False, True)
    ]
    runs = []
    for order in (cases, cases[::-1]):
        _clear_memos()
        runs.append({case[:3]: report_dict(*case) for case in order})
    assert runs[0] == runs[1]
    assert all(all(r["checks"].values()) for r in runs[0].values())
