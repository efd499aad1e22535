"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracing
import workloads

cfku = run.import_cfku()
from cfku import complexes, homology, pretzel  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "sweep": lambda: workloads.sweep_cases(m_max=5),
    "full": lambda: workloads.full_cases(sides=(5,)),
    "oracle": lambda: workloads.oracle_cases(m_max=5),
}


def tiny_passes(cases, seed, trace=False):
    """Two passes in this process, the second traced when ``trace``."""
    passes = [run.run_pass(cases, seed, 0), run.run_pass(cases, seed, 1, trace and tracing.Tracer())]
    run.compare_orders(passes)
    return passes


def test_tiny_smoke_each_workload():
    assert set(TINY) == set(workloads.BUILDERS) == {w["name"] for w in BENCHMARK["workloads"]}
    for name, build in TINY.items():
        cases = build()
        passes = tiny_passes(cases, seed=7)
        assert all(p.failures == {} for p in passes), name
        assert all(set(p.times) == {c.key for c in cases} for p in passes)
        metrics = run.end_to_end(passes, setups=[0.5, 0.25, 0.75])
        assert list(metrics) == [m["name"] for m in BENCHMARK["end_to_end"]]
        assert metrics["setup_s"] == (0.5, "s")
        assert all(value > 0 for value, _unit in metrics.values()), name


def test_case_lists_have_the_documented_sizes():
    assert len(workloads.sweep_cases()) == 110
    assert [c.key for c in workloads.full_cases()] == [
        "full:13,13,mirror", "full:17,17,mirror", "full:21,21,mirror",
    ]
    # counting the oracle's inputs builds no complex
    fulls = [p for p in workloads.odd_pairs() if 2 * (4 + (p[0] - 2) * (p[1] - 2)) <= 60]
    assert 2 * (len(workloads.WORKED_VS) + len(workloads.odd_pairs()) + len(fulls)) == 146


def test_closed_form_matches_the_worked_pretzels():
    for m, n in workloads.odd_pairs(9):
        for mirrored in (False, True):
            want = pretzel.theorem_values(pretzel.PretzelParams(m, n), mirrored).triple
            assert workloads.closed_form_triple(m, n, mirrored) == want


def test_wrong_expected_triple_is_a_failure(monkeypatch):
    right = workloads.closed_form_triple

    def wrong(m, n, mirrored):
        v0, lower, upper = right(m, n, mirrored)
        return (v0, lower + 1, upper)

    monkeypatch.setattr(workloads, "closed_form_triple", wrong)
    for name, build in TINY.items():
        cases = build()
        passes = tiny_passes(cases, seed=1)
        failed = [k for p in passes for k in p.failures]
        assert len(failed) == len(cases) * len(passes) - _exempt(name, passes), name
        assert all("closed form" in msg for p in passes for msg in p.failures.values())


def _exempt(name, passes):
    # the worked examples' expected values do not come from the pretzel formula
    if name != "oracle":
        return 0
    return 2 * len(workloads.WORKED_VS) * len(passes)


def test_raising_and_order_dependent_cases_fail_without_aborting():
    calls = []

    def flaky():
        calls.append(1)
        return len(calls)

    def boom():
        raise ValueError("broken case")

    cases = [
        workloads.Case("ok", lambda: 1, lambda r: (str(r), None)),
        workloads.Case("boom", boom, lambda r: (str(r), None)),
        workloads.Case("stateful", flaky, lambda r: (str(r), None)),
    ]
    passes = tiny_passes(cases, seed=3)
    assert [set(p.times) for p in passes] == [{"ok", "boom", "stateful"}] * len(passes)
    assert all("broken case" in p.failures["boom"] for p in passes)
    assert all("ok" not in p.failures for p in passes)
    assert "stateful" not in passes[0].failures
    assert "differs between case orders" in passes[1].failures["stateful"]


def test_traced_run_restores_every_original():
    originals = {
        (mod.__name__, attr): value
        for mod in (complexes, homology, pretzel)
        for attr, value in vars(mod).items()
        if callable(value)
    }
    class_coords = vars(homology.GradedModule)["class_coords"]
    passes = tiny_passes(TINY["sweep"](), seed=2, trace=True)
    assert [p.traced for p in passes] == [False, True]
    assert homology.subquotient is complexes.subquotient
    assert not hasattr(complexes.subquotient, "__wrapped__")
    assert vars(homology.GradedModule)["class_coords"] is class_coords
    for mod in (complexes, homology, pretzel):
        for attr, value in vars(mod).items():
            if callable(value):
                assert value is originals[(mod.__name__, attr)], (mod.__name__, attr)

    metrics = run.per_layer(passes)
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert metrics["complexes.validate.calls"][0] > 0
    assert metrics["homology.class_coords.calls"][0] > 0
    boxes = metrics["pretzel.box_multiplicities.calls"][0]
    assert metrics["pretzel.box_multiplicities.distinct_ratio"][0] == 3 / boxes


def test_traced_counts_repeat_and_self_time_is_exclusive():
    cases = TINY["oracle"]()
    counts = []
    for seed in (4, 5):
        tracer = tracing.Tracer()
        run.run_pass(cases, seed, 0, tracer)
        totals = tracer.layer_totals()
        counts.append({name: calls for name, (calls, _s) in totals.items()})
        top = sum(end - start for _i, parent, _n, start, end in tracer.spans if parent < 0)
        assert abs(sum(s for _c, s in totals.values()) - top / 1e9) < 1e-6
    assert counts[0] == counts[1]
    assert counts[0]["cone.cone_homology"] == 2 * counts[0]["cone.build_cone"] > 0


def test_exception_counted_once_in_innermost_module():
    t = tracing.Tracer(["upoly.mat_mul", "homology.graded_homology"])
    with t:
        homology.graded_homology([[0, 1], [0, 0]], [0, 1])
        try:
            homology.graded_homology([["not a polynomial"]], [0])
        except AttributeError:
            pass
    assert t.errors == {"upoly": 1}
    # the failing call still closes its spans, nested under their caller
    outer, inner = t.spans[-2:]
    assert (outer[2], inner[2], inner[1]) == ("homology.graded_homology", "upoly.mat_mul", outer[0])
    assert not hasattr(homology.graded_homology, "__wrapped__")


def test_each_pass_runs_in_a_fresh_process():
    # the oracle is the quickest workload at full size: about 5 s a pass
    passes, setups = run.measure("oracle", seed=6, seconds=0.01, trace=True)
    assert [p.traced for p in passes] == [False, True]
    assert len({p.pid for p in passes} | {os.getpid()}) == 3
    assert len(setups) == 2 and all(s > 0 for s in setups)
    assert all(p.failures == {} for p in passes)
    assert set(passes[0].times) == {c.key for c in workloads.oracle_cases()}
    assert list(run.per_layer(passes)) == [m["name"] for m in BENCHMARK["per_layer"]]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable] + BENCHMARK["command"][1:] + [
        "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / ".bench_out").exists()
    assert Path(cfku.__file__).resolve().is_relative_to(run.SRC)
