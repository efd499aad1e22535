"""The summary of tools/bench_pairs.py on hand-made run records."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "rate", "better": "higher", "bound": 0.1},
]


def record(side, seed, wall_s, rate, workload="oracle", trace=0, failed=0):
    return {
        "side": side, "workload": workload, "seed": seed, "trace": trace,
        "failed": failed, "metrics": {"wall_s": wall_s, "rate": rate},
    }


def test_summary_pairs_runs_by_seed():
    runs = [
        record("parent", 1, 0.20, 10), record("change", 1, 0.10, 12),
        record("change", 2, 0.12, 10), record("parent", 2, 0.16, 10),
        record("parent", 3, 0.18, 9), record("change", 3, 0.18, 8, failed=2),
        record("parent", 4, 0.30, 10),  # no partner: left out
        record("parent", 1, 9.0, 0, trace=1),  # traced runs are not summarised
        record("parent", 5, 1.0, 1, workload="full"),
        record("change", 5, 2.0, 2, workload="full"),
        record("parent", 6, 3.0, 3, workload="full"),
        record("change", 6, 4.0, 4, workload="full"),
    ]
    summary = bench_pairs.summarise(runs, END_TO_END)
    assert list(summary) == ["oracle", "full"]
    oracle = summary["oracle"]
    assert oracle["seeds"] == [1, 2, 3] and oracle["pairs"] == 3
    assert oracle["failed"] == {"parent": 0, "change": 2}
    wall = oracle["metrics"]["wall_s"]
    assert wall["parent"] == pytest.approx({"q1": 0.17, "median": 0.18, "q3": 0.19})
    assert wall["change"] == pytest.approx({"q1": 0.11, "median": 0.12, "q3": 0.15})
    assert wall["change_wins"] == 2  # the tie at seed 3 counts for neither
    assert wall["change_vs_parent_median"] == pytest.approx(0.12 / 0.18 - 1)
    rate = oracle["metrics"]["rate"]
    assert rate["change_wins"] == 1  # higher is better: only seed 1
    assert rate["change_vs_parent_median"] == pytest.approx(0.0)
    full = summary["full"]["metrics"]["wall_s"]
    assert full["change_wins"] == 0
    assert full["parent"] == {"q1": 1.5, "median": 2.0, "q3": 2.5}


def test_seed_lists():
    assert bench_pairs.parse_seeds("201-204") == [201, 202, 203, 204]
    assert bench_pairs.parse_seeds("7,3") == [7, 3]


def test_peak_rss_compared_over_the_passes_both_sides_ran():
    runs = []
    for seed, parent, change in (
        (1, [20.0, 21.0, 22.0], [20.5, 21.5, 22.5, 30.0, 31.0]),
        (2, [20.0, 20.0, 26.0, 27.0], [19.0, 19.5, 19.0]),
    ):
        for side, rss in (("parent", parent), ("change", change)):
            runs.append({**record(side, seed, 0.1, 1), "pass_peak_rss_mb": rss})
    same = bench_pairs.summarise(runs, END_TO_END)["oracle"]["peak_rss_mb_same_passes"]
    # each pair keeps its first three passes a side
    assert same["parent"]["median"] == pytest.approx((21.0 + 20.0) / 2)
    assert same["change"]["median"] == pytest.approx((21.5 + 19.0) / 2)
    assert same["change_wins"] == 1
    # records without per-pass values give no such comparison
    plain = [record(side, seed, 0.1, 1) for side in ("parent", "change") for seed in (1, 2)]
    assert "peak_rss_mb_same_passes" not in bench_pairs.summarise(plain, END_TO_END)["oracle"]


def _pairs(parent, change):
    """Runs of one oracle pair per seed, wall_s and rate both from the lists."""
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change)):
        runs += [record("parent", seed, p, p), record("change", seed, c, c)]
    return bench_pairs.summarise(runs, END_TO_END)["oracle"]["metrics"]


def test_gain_resolved_needs_nine_tenths_of_the_pairs_and_the_parent_spread():
    parent = [1.00, 1.02, 1.04, 1.06, 1.08, 1.10, 1.12, 1.14, 1.16, 1.18]
    # parent q1 1.045, q3 1.135: a spread of 0.09
    fast = [p - 0.2 for p in parent]
    wall = _pairs(parent, fast)["wall_s"]
    assert wall["change_wins"] == 10 and wall["gain_resolved"]
    # the same medians with one pair lost and one tied: 8 of 10 wins
    lost = fast[:8] + [parent[8], parent[9] + 0.5]
    assert _pairs(parent, lost)["wall_s"]["change_wins"] == 8
    assert not _pairs(parent, lost)["wall_s"]["gain_resolved"]
    # 9 of 10 wins, and the median gain just inside the parent's spread
    small = [p - 0.08 for p in parent[:9]] + [parent[9] + 0.1]
    wall = _pairs(parent, small)["wall_s"]
    assert wall["change_wins"] == 9 and not wall["gain_resolved"]
    # 9 of 10 wins and a median gain beyond the spread
    wall = _pairs(parent, [p - 0.1 for p in parent[:9]] + [parent[9] + 0.1])["wall_s"]
    assert wall["change_wins"] == 9 and wall["gain_resolved"]
    # higher is better for rate: the same lists are a resolved loss there
    rate = _pairs(parent, fast)["rate"]
    assert rate["change_wins"] == 0 and not rate["gain_resolved"]


def test_within_bound_reads_the_bound_as_a_fraction_of_the_parent_median():
    parent = [1.0, 1.0, 1.0, 1.0]
    metrics = _pairs(parent, [1.2] * 4)
    # wall_s: 20% slower, bound 25%; rate: 20% higher, better
    assert metrics["wall_s"]["within_bound"] and metrics["rate"]["within_bound"]
    metrics = _pairs(parent, [1.3] * 4)
    assert not metrics["wall_s"]["within_bound"] and metrics["rate"]["within_bound"]
    metrics = _pairs(parent, [0.95] * 4)
    # rate: 5% lower, bound 10%
    assert metrics["wall_s"]["within_bound"] and metrics["rate"]["within_bound"]
    metrics = _pairs(parent, [0.85] * 4)
    assert not metrics["rate"]["within_bound"]
    # a parent without spread: any median gain won in every pair resolves
    assert metrics["wall_s"]["within_bound"] and metrics["wall_s"]["gain_resolved"]
    assert not metrics["wall_s"]["unresolved"] and not metrics["rate"]["unresolved"]


def test_unresolved_when_the_parent_spreads_wider_than_the_bound():
    parent = [1.0, 1.0, 1.5, 1.5]
    # parent q1 1.0, q3 1.5, median 1.25: a spread of 40% of the median,
    # wider than both bounds
    metrics = _pairs(parent, [p * 1.3 for p in parent])
    assert not metrics["wall_s"]["within_bound"] and metrics["wall_s"]["unresolved"]
    # rate: better in the median, yet the change's 1.3 loses to the parent's 1.5
    assert metrics["rate"]["within_bound"] and metrics["rate"]["unresolved"]
    metrics = _pairs(parent, parent)
    assert metrics["wall_s"]["within_bound"] and metrics["wall_s"]["unresolved"]


def test_a_change_whose_every_run_wins_is_resolved_despite_the_spread():
    parent = [1.0, 1.0, 1.5, 1.5]
    metrics = _pairs(parent, [0.9, 0.5, 0.6, 0.7])
    # every change run beats every parent run on wall_s, none does on rate
    assert not metrics["wall_s"]["unresolved"] and metrics["wall_s"]["within_bound"]
    assert metrics["rate"]["unresolved"] and not metrics["rate"]["within_bound"]


_FAKE_RUN = """
import json, pathlib, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
out = pathlib.Path(".bench_out")
out.mkdir(exist_ok=True)
name = "%s-seed%s-trace%s.json" % (args["--workload"], args["--seed"], args["--trace"])
provenance = {"git_revision": "r", "src_sha256": "s", "loadavg_before": [0, 0, 0]}
passes = [{"peak_rss_mb": 20.0, "traced": False}]
(out / name).write_text(json.dumps({"provenance": provenance, "passes": passes}))
print(json.dumps({"attempted": 1, "failed": 0, "metrics": {"wall_s": {"value": 0.1}}}))
"""


def test_runs_record_bytecode_and_pairs_need_one_state(tmp_path):
    trees = {}
    for side in bench_pairs.SIDES:
        tree = trees[side] = tmp_path / side
        (tree / "src" / "cfku").mkdir(parents=True)
        (tree / "perfbench").mkdir()
        (tree / "perfbench" / "run.py").write_text(_FAKE_RUN)

    def pycache(side):
        return bench_pairs.run_side(trees[side], side, "oracle", 1, 1.0, 0)["src_pycache"]

    assert not pycache("parent") and not pycache("change")
    bench_pairs.require_same_bytecode(trees)
    (trees["change"] / "src" / "cfku" / "__pycache__").mkdir()
    assert pycache("change") and not pycache("parent")
    with pytest.raises(SystemExit, match="only the change tree's src holds __pycache__"):
        bench_pairs.require_same_bytecode(trees)
    (trees["parent"] / "src" / "cfku" / "__pycache__").mkdir()
    bench_pairs.require_same_bytecode(trees)
    assert pycache("parent")
