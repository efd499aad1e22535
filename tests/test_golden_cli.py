"""Replay a fixed list of CLI commands and compare stdout with tests/golden.

The golden files were written by the command list below on the code
before homology representatives became sparse vectors, and
verify_m-max_31.txt on the code before the deep checks read the
staircase and its box blocks instead of the full complex, and
verify_m-max_31_format_json.txt, which pins the names and diagnostics of
every deep check, on the code before the staircase's rank table was kept
once per step tuple, and show_m_11_n_7_which_full_format_json.txt and
hfk_m_11_n_7.txt, a C3 pair with boxes off the main diagonal, on the
code before the full complex and its involution were checked by blocks,
and hfk_m_15_n_13.txt (C2) and hfk_m_13_n_11_format_json.txt (C4), so
that the rank tables of all four families are pinned, on the code
before hfk_hat read the slice homology off the one elimination; a
refactor that changes no answer leaves every one byte-identical. To
rewrite them after a deliberate change of output, run this file as a
script.
"""

import sys
from pathlib import Path

import pytest

from cfku import cli

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = [
    ["verify", "--m-max", "9"],
    ["verify", "--m-max", "9", "--format", "json"],
    ["verify", "--m-max", "31"],
    ["verify", "--m-max", "31", "--format", "json"],
    ["invariants", "-m", "9", "-n", "7"],
    ["invariants", "-m", "9", "-n", "7", "--mirror"],
    ["invariants", "-m", "13", "-n", "13", "--mirror", "--format", "json"],
    ["hfk", "-m", "9", "-n", "9"],
    *(
        ["show", "-m", m, "-n", "5", "--which", which, "--format", fmt]
        for m in ("5", "7")
        for which in ("model", "A0", "cone")
        for fmt in ("table", "json")
    ),
    ["show", "-m", "9", "-n", "9", "--which", "full", "--format", "json"],
    ["show", "-m", "11", "-n", "7", "--which", "full", "--format", "json"],
    ["hfk", "-m", "11", "-n", "7"],
    ["hfk", "-m", "15", "-n", "13"],
    ["hfk", "-m", "13", "-n", "11", "--format", "json"],
    ["examples", "trefoil"],
    ["examples", "figure-eight"],
    ["examples", "unknot"],
    ["examples", "lspace", "1", "3"],
]


def golden_path(argv: list[str]) -> Path:
    return GOLDEN / ("_".join(a.lstrip("-") for a in argv) + ".txt")


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_output_matches_golden(argv, capsys):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == golden_path(argv).read_text()


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    for argv in COMMANDS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if code != 0:
            sys.exit("%s exited %d" % (" ".join(argv), code))
        golden_path(argv).write_text(buf.getvalue())
