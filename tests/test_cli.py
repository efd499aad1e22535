"""CLI behaviour: exit codes, formats, parallel determinism."""

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cfku import cli, render
from cfku.complexes import (
    figure_eight_complex,
    left_trefoil_complex,
    right_trefoil_complex,
    unknot_complex,
)
from cfku.pretzel import PretzelParams, full_complex, report_dict
from cfku.homology import hfk_hat


def run(argv):
    return cli.main(argv)


def test_invariants_exit_zero(capsys):
    assert run(["invariants", "-m", "5", "-n", "5", "--fast"]) == 0
    out = capsys.readouterr().out
    assert "V0 = 0, lower V0 = 0, upper V0 = -2" in out
    assert "MATCH" in out


def test_invariants_json_matches_report(tmp_path):
    path = tmp_path / "r.json"
    assert run(
        ["invariants", "-m", "5", "-n", "5", "--mirror", "--format", "json",
         "--out", str(path)]
    ) == 0
    data = json.loads(path.read_text())
    assert data == report_dict(5, 5, mirrored=True, deep=True)
    assert (data["V0"], data["V0_lower"], data["V0_upper"]) == (2, 3, 2)
    assert data["checks"]["theorem_match"] is True


def test_usage_errors_exit_two(capsys):
    one_line = [
        ["verify", "--m-max", "3", "--jobs", "0"],
        ["verify", "--m-max", "3", "--jobs", "-5"],
        ["show", "-m", "5", "-n", "5", "--which", "A0", "--format", "dot"],
        ["show", "-m", "5", "-n", "5", "--which", "A0", "--format", "ascii"],
        ["show", "-m", "5", "-n", "5", "--which", "cone", "--format", "dot"],
        ["show", "-m", "5", "-n", "5", "--which", "cone", "--format", "ascii"],
        ["examples", "trefoil", "1", "2", "3"],
    ]
    for argv in [
        ["invariants", "-m", "4", "-n", "3"],
        ["invariants", "-m", "3", "-n", "5"],
        ["verify", "--m-max", "4"],
        ["examples", "nosuchknot"],
        ["examples", "lspace"],
    ] + one_line:
        with pytest.raises(SystemExit) as e:
            run(argv)
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err.splitlines()[-1]
        if argv in one_line:
            assert captured.err.count("\n") == 1, argv


def test_output_error_exit_three(tmp_path, capsys):
    path = tmp_path / "missing" / "r.json"
    with pytest.raises(SystemExit) as e:
        run(["invariants", "-m", "3", "-n", "3", "--fast", "--format", "json",
             "--out", str(path)])
    assert e.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "cannot write" in captured.err and "Traceback" not in captured.err
    assert not path.exists()


def test_internal_error_exit_four(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("assembled pretzel complex invalid")

    monkeypatch.setattr(cli, "report_dict", broken)
    assert run(["invariants", "-m", "3", "-n", "3"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "cfku: internal error: assembled pretzel complex invalid\n"


def test_process_exit_codes(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)

    def proc(*argv, **extra_env):
        return subprocess.run(
            [sys.executable, "-m", "cfku.cli", *argv],
            env=dict(env, **extra_env), capture_output=True, text=True, timeout=60,
        )

    def code(*argv):
        return proc(*argv).returncode

    assert code("invariants", "-m", "3", "-n", "3", "--fast") == 0
    assert code("verify", "--m-max", "3", "--jobs", "0") == 2
    missing = tmp_path / "missing" / "r.txt"
    assert code("invariants", "-m", "3", "-n", "3", "--fast", "--out", str(missing)) == 3
    bad_log = proc("invariants", "-m", "5", "-n", "5", "--fast", CFK_LOG="bogus")
    assert bad_log.returncode == 2
    assert bad_log.stdout == ""
    assert bad_log.stderr == (
        "cfku: error: CFK_LOG must be one of DEBUG, INFO, WARNING, ERROR, "
        "CRITICAL, not 'bogus'\n"
    )
    assert proc("invariants", "-m", "3", "-n", "3", "--fast", CFK_LOG="info").returncode == 0


def test_mismatch_exit_one(monkeypatch, capsys):
    broken = report_dict(3, 3, mirrored=False, deep=False)
    broken["checks"]["theorem_match"] = False
    monkeypatch.setattr(cli, "report_dict", lambda *a, **k: dict(broken))
    assert run(["invariants", "-m", "3", "-n", "3", "--fast"]) == 1
    capsys.readouterr()


def test_verify_small(capsys):
    assert run(["verify", "--m-max", "3"]) == 0
    out = capsys.readouterr().out
    assert "2 cases, 0 failures" in out


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_logs_each_case_in_order(caplog, capsys, jobs):
    with caplog.at_level(logging.INFO, logger="cfku"):
        assert run(["verify", "--m-max", "5", "--jobs", jobs]) == 0
    assert capsys.readouterr().out.endswith("6 cases, 0 failures\n")
    lines = [m for m in caplog.messages if m.startswith("verify ")]
    assert {(r.name, r.levelname) for r in caplog.records} == {("cfku", "INFO")}
    assert lines == [
        "verify m=3 n=3 knot: (V0, lower, upper) = (0, 0, -1) ok",
        "verify m=3 n=3 mirror: (V0, lower, upper) = (1, 1, 1) ok",
        "verify m=5 n=3 knot: (V0, lower, upper) = (0, 0, -2) ok",
        "verify m=5 n=3 mirror: (V0, lower, upper) = (2, 2, 2) ok",
        "verify m=5 n=5 knot: (V0, lower, upper) = (0, 0, -2) ok",
        "verify m=5 n=5 mirror: (V0, lower, upper) = (2, 3, 2) ok",
    ]


def test_verify_mismatch_is_logged(monkeypatch, caplog, capsys):
    broken = report_dict(3, 3, mirrored=False, deep=False)
    broken["checks"]["theorem_match"] = False
    monkeypatch.setattr(cli, "report_dict", lambda *a, **k: dict(broken))
    with caplog.at_level(logging.INFO, logger="cfku"):
        assert run(["verify", "--m-max", "3"]) == 1
    capsys.readouterr()
    assert caplog.messages[-1] == (
        "verify m=3 n=3 knot: (V0, lower, upper) = (0, 0, -1) MISMATCH theorem_match"
    )


def test_verify_starts_no_more_workers_than_cases(monkeypatch, capsys):
    # a stand-in pool that records its size and runs the cases in-process
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
    assert run(["verify", "--m-max", "3", "--jobs", "5000"]) == 0
    assert capsys.readouterr().out.endswith("2 cases, 0 failures\n")
    assert run(["verify", "--m-max", "5", "--jobs", "4"]) == 0
    assert capsys.readouterr().out.endswith("6 cases, 0 failures\n")
    assert sizes == [2, 4]


def test_verify_jobs_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["verify", "--m-max", "7", "--format", "json", "--out", str(a)]) == 0
    assert run(
        ["verify", "--m-max", "7", "--jobs", "2", "--format", "json", "--out", str(b)]
    ) == 0
    assert a.read_text() == b.read_text()
    data = json.loads(a.read_text())
    assert data["failures"] == 0
    keys = [(r["m"], r["n"], r["mirrored"]) for r in data["reports"]]
    assert keys == sorted(keys)


def test_hfk_json(tmp_path):
    path = tmp_path / "h.json"
    assert run(["hfk", "-m", "5", "-n", "3", "--format", "json", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    want = hfk_hat(full_complex(PretzelParams(5, 3)))
    assert {(e["alexander"], e["maslov"]): e["rank"] for e in data} == want


def test_show_formats(tmp_path, capsys):
    assert run(["show", "-m", "5", "-n", "5", "--format", "ascii"]) == 0
    grid = capsys.readouterr().out
    assert "|" in grid and "+" in grid
    assert run(["show", "-m", "5", "-n", "5", "--format", "dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph")
    path = tmp_path / "c.json"
    assert run(
        ["show", "-m", "5", "-n", "5", "--which", "model", "--format", "json",
         "--out", str(path)]
    ) == 0
    data = json.loads(path.read_text())
    c = render.complex_from_json(data)
    assert render.complex_to_json(c) == data
    assert run(["show", "-m", "5", "-n", "5", "--which", "A0"]) == 0
    capsys.readouterr()
    assert run(["show", "-m", "5", "-n", "5", "--which", "cone"]) == 0
    out = capsys.readouterr().out
    assert "Q " in out


def test_show_full_refuses_past_the_size_bound(monkeypatch, capsys):
    # (303, 303) would have 4 + 301^2 = 90,605 generators; the refusal
    # comes before anything is built, and (301, 301), 89,405, is allowed
    built = []

    def full_complex_stub(params):
        built.append(params)
        return unknot_complex()

    monkeypatch.setattr(cli, "full_complex", full_complex_stub)
    with pytest.raises(SystemExit) as e:
        run(["show", "-m", "303", "-n", "303", "--format", "json"])
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and built == []
    assert captured.err == (
        "cfku show: error: --which full of (303, 303) would have 90605 "
        "generators, more than the bound 90000\n"
    )
    assert run(["show", "-m", "301", "-n", "301", "--format", "json"]) == 0
    assert built == [PretzelParams(301, 301)]
    capsys.readouterr()
    assert run(["show", "-m", "303", "-n", "303", "--which", "model"]) == 0


def test_examples(capsys):
    assert run(["examples", "trefoil"]) == 0
    out = capsys.readouterr().out
    assert "V0 = 1, lower V0 = 1, upper V0 = 1" in out
    assert "iota(z1_1) = z1_2" in out
    assert run(["examples", "figure-eight"]) == 0
    out = capsys.readouterr().out
    assert "V0 = 0, lower V0 = 1, upper V0 = 0" in out
    assert run(["examples", "lspace", "1"]) == 0
    out = capsys.readouterr().out
    assert "V0 = 1" in out
    assert run(["examples", "unknot"]) == 0
    capsys.readouterr()


def test_complex_json_round_trip():
    for c in (
        unknot_complex(),
        right_trefoil_complex(),
        left_trefoil_complex(),
        figure_eight_complex(),
        full_complex(PretzelParams(7, 5)),
    ):
        assert render.complex_from_json(render.complex_to_json(c)) == c
    c = figure_eight_complex()
    d = render.complex_to_json(c)
    # text form parses back to the same document
    assert json.loads(render.to_json_text(d)) == d
    # an arrow between two grading-0 generators breaks the grading law
    bad = dict(d, differential=d["differential"] + [
        {"source": "x", "target": "a", "upowers": [0]}
    ])
    with pytest.raises(ValueError, match="grading law"):
        render.complex_from_json(bad)
    # an unlisted generator, a missing field, a repeated arrow, a field of
    # the wrong type (a bool is no position), and an arrow without exactly
    # one integer U-power
    gens, arrows = d["generators"], d["differential"]

    def first_gen(**kw):
        return dict(d, generators=[dict(gens[0], **kw)] + gens[1:])

    def first_arrow(upowers):
        return dict(d, differential=[dict(arrows[0], upowers=upowers)] + arrows[1:])

    for bad in (
        dict(d, differential=arrows + [{"source": "x", "target": "nosuch", "upowers": [0]}]),
        dict(d, differential=arrows + [{"source": "x", "target": "a"}]),
        dict(d, differential=arrows + [dict(arrows[0])]),
        first_gen(maslov="0"),
        first_gen(i=True),
        first_gen(j=1.0),
        first_gen(label=["a"]),
        dict(d, generators={g["label"]: g for g in gens}),
        dict(d, generators=["a"] + gens[1:]),
        dict(d, differential=None),
        first_arrow(0.0),
        first_arrow("0"),
        first_arrow([]),
        first_arrow([0, 0]),
        first_arrow([0.0]),
        first_arrow([True]),
        [],
    ):
        with pytest.raises(ValueError, match="invalid complex document"):
            render.complex_from_json(bad)
