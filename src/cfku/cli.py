"""Command-line frontend: compute, sweep, verify, render, export."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import render
from .complexes import (
    build_lspace_staircase,
    build_staircase,
    figure_eight_complex,
    subquotient,
    unknot_complex,
)
from .cone import build_cone, involutive_invariants
from .involution import (
    figure_eight_involution,
    identity_involution,
    standard_staircase_involution,
)
from .pretzel import (
    PretzelParams,
    block_hfk,
    full_complex,
    model_complex,
    model_involution_for,
    report_dict,
    theorem_values,
)

log = logging.getLogger("cfku")

USAGE_ERROR = 2
MISMATCH_ERROR = 1
IO_ERROR = 3
INTERNAL_ERROR = 4
LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")
# show --which full builds the whole full complex, 4 + (m-2)(n-2)
# generators; (301, 301), with 89,405, is the largest square pair allowed
SHOW_FULL_MAX_GENS = 90_000


def _usage_error(parser: argparse.ArgumentParser, command: str, message: str):
    parser.exit(USAGE_ERROR, "%s %s: error: %s\n" % (parser.prog, command, message))


def _params_or_exit(parser: argparse.ArgumentParser, m: int, n: int) -> PretzelParams:
    try:
        return PretzelParams(m, n)
    except ValueError as e:
        parser.error(str(e))  # exits with code 2


def _emit(text: str, out: str | None) -> None:
    try:
        if out:
            with open(out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as e:
        sys.stderr.write(
            "cfku: error: cannot write %s: %s\n" % (out or "stdout", e.strerror or e)
        )
        sys.exit(IO_ERROR)


def _diagnostic_lines(diagnostics: dict) -> list[str]:
    lines = [
        "    expected (V0, lower V0, upper V0) = (%d, %d, %d)" % tuple(diagnostics["expected"]),
        "    computed (V0, lower V0, upper V0) = (%d, %d, %d)" % tuple(diagnostics["computed"]),
    ]
    hfk = diagnostics.get("hfk")
    if hfk:
        lines.append(
            "    first hfk difference at (alexander, maslov) = (%d, %d): "
            "expected rank %d, computed %d"
            % (hfk["alexander"], hfk["maslov"], hfk["expected"], hfk["computed"])
        )
    alex = diagnostics.get("alexander")
    if alex:
        lines.append(
            "    first Alexander difference at t^%d: expected %d, computed %d"
            % (alex["exponent"], alex["expected"], alex["computed"])
        )
    count = diagnostics.get("count")
    if count:
        lines.append(
            "    generator count: expected %d, computed %d"
            % (count["expected"], count["computed"])
        )
    return lines


def cmd_invariants(parser, args) -> int:
    params = _params_or_exit(parser, args.m, args.n)
    report = report_dict(args.m, args.n, args.mirror, deep=not args.fast)
    expected = theorem_values(params, args.mirror)
    ok = all(report["checks"].values())
    if args.format == "json":
        _emit(render.to_json_text(report), args.out)
    else:
        lines = [render.report_table(report).rstrip("\n")]
        lines.append(
            "  closed form: V0 = %d, lower V0 = %d, upper V0 = %d"
            % expected.triple
        )
        lines.append("  verdict: %s" % ("MATCH" if ok else "MISMATCH"))
        if "diagnostics" in report:
            lines += _diagnostic_lines(report["diagnostics"])
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else MISMATCH_ERROR


def _verify_case(case: tuple[int, int, bool, bool]) -> dict:
    m, n, mirrored, deep = case
    return report_dict(m, n, mirrored, deep=deep)


def _collect(reports) -> list[dict]:
    """Drain the case reports in case order, logging each as it finishes."""
    out = []
    for r in reports:
        failed = [name for name, ok in r["checks"].items() if not ok]
        log.info(
            "verify m=%d n=%d %s: (V0, lower, upper) = (%d, %d, %d) %s",
            r["m"], r["n"], "mirror" if r["mirrored"] else "knot",
            r["V0"], r["V0_lower"], r["V0_upper"],
            "MISMATCH " + ", ".join(failed) if failed else "ok",
        )
        out.append(r)
    return out


def cmd_verify(parser, args) -> int:
    if args.m_max % 2 == 0 or args.m_max < 3:
        parser.error("--m-max must be odd and at least 3")
    if args.jobs < 1:
        _usage_error(parser, "verify", "--jobs must be at least 1")
    cases = []
    for m in range(3, args.m_max + 1, 2):
        for n in range(3, m + 1, 2):
            # deep structural checks once per pair; theorem both chiralities
            cases.append((m, n, False, True))
            cases.append((m, n, True, False))
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(cases))) as pool:
            reports = _collect(pool.map(_verify_case, cases))
    else:
        reports = _collect(map(_verify_case, cases))
    reports.sort(key=lambda r: (r["m"], r["n"], r["mirrored"]))
    failures = [r for r in reports if not all(r["checks"].values())]
    if args.format == "json":
        _emit(render.to_json_text({"reports": reports, "failures": len(failures)}), args.out)
    else:
        lines = []
        for r in reports:
            ok = all(r["checks"].values())
            lines.append(
                "P(-2,%2d,%2d)%s  (V0, lower, upper) = (%d, %d, %d)  %s"
                % (
                    r["m"], r["n"],
                    " mirror" if r["mirrored"] else "       ",
                    r["V0"], r["V0_lower"], r["V0_upper"],
                    "ok" if ok else "MISMATCH " + str(r["checks"]),
                )
            )
        lines.append(
            "%d cases, %d failures" % (len(reports), len(failures))
        )
        _emit("\n".join(lines) + "\n", args.out)
    return MISMATCH_ERROR if failures else 0


def cmd_hfk(parser, args) -> int:
    table = block_hfk(_params_or_exit(parser, args.m, args.n))[0]
    if args.format == "json":
        data = [
            {"alexander": w, "maslov": k, "rank": r}
            for (w, k), r in sorted(table.items())
        ]
        _emit(render.to_json_text(data), args.out)
    else:
        lines = ["%9s %7s %5s" % ("alexander", "maslov", "rank")]
        for (w, k), r in sorted(table.items(), reverse=True):
            lines.append("%9d %7d %5d" % (w, k, r))
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_show(parser, args) -> int:
    params = _params_or_exit(parser, args.m, args.n)
    if args.which in ("A0", "cone") and args.format in ("dot", "ascii"):
        _usage_error(
            parser, "show",
            "--which %s supports --format table or json, not %s"
            % (args.which, args.format),
        )
    if args.which == "full":
        size = 4 + (args.m - 2) * (args.n - 2)
        if size > SHOW_FULL_MAX_GENS:
            _usage_error(
                parser, "show",
                "--which full of (%d, %d) would have %d generators, more than the bound %d"
                % (args.m, args.n, size, SHOW_FULL_MAX_GENS),
            )
        c = full_complex(params)
    else:
        c = model_complex(params)
    if args.which in ("full", "model"):
        if args.format == "json":
            _emit(render.to_json_text(render.complex_to_json(c)), args.out)
        elif args.format == "dot":
            _emit(render.render_dot(c, "P_2_%d_%d" % (args.m, args.n)), args.out)
        elif args.format == "ascii":
            _emit(render.render_ascii(c), args.out)
        else:
            _emit(render.generator_table(c), args.out)
        return 0
    iota = model_involution_for(params, c)
    if args.which == "A0":
        sq = subquotient(c)
        if args.format == "json":
            _emit(render.to_json_text(render.subquotient_to_json(sq)), args.out)
            return 0
        labels, maslov, width = sq.labels(), sq.maslov, 12
    else:
        cone = build_cone(c, iota)
        labels, maslov, width = cone.labels, cone.maslov, 16
        if args.format == "json":
            data = [{"label": lab, "maslov": mm} for lab, mm in zip(labels, maslov)]
            _emit(render.to_json_text({"generators": data}), args.out)
            return 0
    lines = ["%-*s %7s" % (width, "label", "maslov")]
    lines += ["%-*s %7d" % (width, lab, mm) for lab, mm in zip(labels, maslov)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _example(name: str, ws: list[int]):
    if name in ("trefoil", "left-trefoil"):
        c = build_staircase("positive" if name == "trefoil" else "negative", (1,))
        return c, standard_staircase_involution(c)
    if name == "figure-eight":
        c = figure_eight_complex()
        return c, figure_eight_involution(c)
    if name == "unknot":
        c = unknot_complex()
        return c, identity_involution(c)
    if name == "lspace":
        if not ws:
            raise ValueError("lspace needs the jump list, e.g. lspace 1 3")
        c, _nk = build_lspace_staircase(tuple(ws))
        return c, standard_staircase_involution(c)
    raise ValueError("unknown example %r" % name)


def cmd_examples(parser, args) -> int:
    if args.jumps and args.name != "lspace":
        _usage_error(parser, "examples", "only lspace takes jumps, not %r" % args.name)
    try:
        c, iota = _example(args.name, args.jumps)
    except ValueError as e:
        parser.error(str(e))
    triple = involutive_invariants(c, iota)
    lines = [render.generator_table(c).rstrip("\n")]
    images: dict[int, list[str]] = {}
    labels = c.labels()
    for (t, s), a in sorted(iota.matrix.items()):
        images.setdefault(s, []).append(("U^%d " % a if a else "") + labels[t])
    for s in sorted(images):
        lines.append("iota(%s) = %s" % (labels[s], " + ".join(images[s])))
    lines.append("V0 = %d, lower V0 = %d, upper V0 = %d" % triple)
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfku",
        description="Involutive concordance invariants of P(-2,m,n) pretzel knots",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mn(p):
        p.add_argument("-m", type=int, required=True)
        p.add_argument("-n", type=int, required=True)

    def add_common(p, formats):
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("invariants", help="compute and check one pair")
    add_mn(p)
    p.add_argument("--mirror", action="store_true")
    p.add_argument("--fast", action="store_true", help="skip the deep model checks")
    add_common(p, ["table", "json"])

    p = sub.add_parser("verify", help="sweep all pairs up to m-max")
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    add_common(p, ["table", "json"])

    p = sub.add_parser("hfk", help="bigraded ranks of the full complex")
    add_mn(p)
    add_common(p, ["table", "json"])

    p = sub.add_parser("show", help="render a complex or subquotient")
    add_mn(p)
    p.add_argument(
        "--which", choices=["full", "model", "A0", "cone"], default="full",
        help="full (the default) refuses a pair whose full complex would have "
        "more than %s generators, 4 + (m-2)(n-2)" % format(SHOW_FULL_MAX_GENS, ","),
    )
    add_common(p, ["table", "json", "dot", "ascii"])

    p = sub.add_parser("examples", help="worked small examples")
    p.add_argument("name")
    p.add_argument("jumps", nargs="*", type=int)
    add_common(p, ["table"])
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    level = os.environ.get("CFK_LOG", "WARNING")
    if level.upper() not in LOG_LEVELS:
        parser.exit(
            USAGE_ERROR,
            "%s: error: CFK_LOG must be one of %s, not %r\n"
            % (parser.prog, ", ".join(LOG_LEVELS), level),
        )
    logging.basicConfig(level=level.upper())
    args = parser.parse_args(argv)
    log.info("command %s", args.command)
    handlers = {
        "invariants": cmd_invariants,
        "verify": cmd_verify,
        "hfk": cmd_hfk,
        "show": cmd_show,
        "examples": cmd_examples,
    }
    try:
        return handlers[args.command](parser, args)
    except ValueError as e:
        # a hard check failed inside the computation, not in the input
        sys.stderr.write("cfku: internal error: %s\n" % e)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
