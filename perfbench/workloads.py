"""Case lists, inputs and independent result checks of the three workloads.

Each workload is a fixed list of cases; the seed only changes the order
in which a pass runs them.  A case's ``call`` is the timed region and
goes through the public functions of ``cfku.pretzel`` and ``cfku.cone``
only.  Its ``check`` runs after the pass, outside the timed region, and
compares the result with the closed form computed here from (m, n)
alone, so a defect in cfku's own expected values cannot hide a wrong
answer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable

M_MAX = 21
FULL_SIDES = (13, 17, 21)
ORACLE_MAX_CONE = 60

# (lower V0, upper V0) of the worked examples and of their duals; the
# trefoils swap under duality, the unknot and figure-eight are amphichiral.
WORKED_VS = {
    "right_trefoil": ((1, 1), (0, -1)),
    "left_trefoil": ((0, -1), (1, 1)),
    "figure_eight": ((1, 0), (1, 0)),
    "unknot": ((0, 0), (0, 0)),
}


@dataclass(frozen=True)
class Case:
    """One unit of work: ``call`` is timed, ``check`` is not.

    ``check`` maps the call's result to (summary, problem): the summary
    is a string compared across passes run in different orders, and the
    problem is None when the result is correct.
    """

    key: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple[str, str | None]]


def odd_pairs(m_max: int = M_MAX) -> list[tuple[int, int]]:
    return [(m, n) for m in range(3, m_max + 1, 2) for n in range(3, m + 1, 2)]


def closed_form_nk(m: int, n: int) -> int:
    """nK: the total vertical arrow length of the staircase's top half."""
    return (m + n - 2) // 4 if m % 4 == n % 4 else (m + n) // 4


def closed_form_triple(m: int, n: int, mirrored: bool) -> tuple[int, int, int]:
    """(V0, lower V0, upper V0) of P(-2, m, n), or of its mirror."""
    nk = closed_form_nk(m, n)
    if not mirrored:
        return (0, 0, -nk)
    if m % 4 != n % 4 or m % 4 == 3:
        return (nk, nk, nk)
    return (nk, nk + 1, nk)


# ---------------------------------------------------------------------------
# sweep: the case list of ``cfku verify --m-max 21``


def _sweep_check(m: int, n: int, mirrored: bool):
    def check(report: dict) -> tuple[str, str | None]:
        want = closed_form_triple(m, n, mirrored)
        got = (report["V0"], report["V0_lower"], report["V0_upper"])
        checks = report["checks"]
        problem = None
        if got != want:
            problem = "triple %r, closed form %r" % (got, want)
        elif report["nK"] != closed_form_nk(m, n):
            problem = "nK %r, closed form %r" % (report["nK"], closed_form_nk(m, n))
        elif "theorem_match" not in checks or not all(checks.values()):
            problem = "checks %r" % checks
        return json.dumps(report, sort_keys=True), problem

    return check


def sweep_cases(m_max: int = M_MAX) -> list[Case]:
    from cfku import pretzel

    cases = []
    for m, n in odd_pairs(m_max):
        # deep structural checks once per pair, the theorem in both chiralities
        for mirrored, deep in ((False, True), (True, False)):
            cases.append(
                Case(
                    "sweep:%d,%d%s" % (m, n, ",mirror" if mirrored else ""),
                    lambda m=m, n=n, mi=mirrored, d=deep: pretzel.report_dict(m, n, mi, deep=d),
                    _sweep_check(m, n, mirrored),
                )
            )
    return cases


# ---------------------------------------------------------------------------
# full: the full-complex pipeline on a few large mirrored pretzels


def _full_check(side: int):
    def check(report) -> tuple[str, str | None]:
        want = closed_form_triple(side, side, True)
        summary = json.dumps(
            [list(report.triple), report.family, report.n_of_k, sorted(report.boxes.items())]
        )
        if report.triple != want:
            return summary, "triple %r, closed form %r" % (report.triple, want)
        return summary, None

    return check


def full_cases(sides=FULL_SIDES) -> list[Case]:
    from cfku import pretzel

    return [
        Case(
            "full:%d,%d,mirror" % (k, k),
            lambda k=k: pretzel.compute_invariants(
                pretzel.PretzelParams(k, k), mirrored=True, use_full=True
            ),
            _full_check(k),
        )
        for k in sides
    ]


# ---------------------------------------------------------------------------
# oracle: fast extractor against the brute-force one on every small cone


def _worked_examples():
    from cfku import complexes as cx
    from cfku import involution as inv

    out = []
    for name, maker in (
        ("right_trefoil", cx.right_trefoil_complex),
        ("left_trefoil", cx.left_trefoil_complex),
    ):
        c = maker()
        cx.relabel(c, {"a": "z0", "b": "z1_1", "c": "z1_2"})
        out.append((name, c, inv.standard_staircase_involution(c)))
    fe = cx.figure_eight_complex()
    out.append(("figure_eight", fe, inv.figure_eight_involution(fe)))
    u = cx.unknot_complex()
    out.append(("unknot", u, inv.identity_involution(u)))
    return out


def oracle_inputs(m_max: int = M_MAX):
    """(key, complex, involution, expected (lower, upper)) for every case.

    The cone has two generators per A0- basis element, and A0- of a
    free complex has one per generator, so a full complex qualifies when
    twice its generator count 4 + (m-2)(n-2) is at most ORACLE_MAX_CONE.
    """
    from cfku import complexes as cx
    from cfku import involution as inv
    from cfku import pretzel

    base = [(name, c, iota, WORKED_VS[name]) for name, c, iota in _worked_examples()]
    for m, n in odd_pairs(m_max):
        params = pretzel.PretzelParams(m, n)
        vs = closed_form_triple(m, n, False)[1:], closed_form_triple(m, n, True)[1:]
        mc = pretzel.model_complex(params)
        base.append(("model:%d,%d" % (m, n), mc, pretzel.model_involution_for(params, mc), vs))
        if 2 * (4 + (m - 2) * (n - 2)) <= ORACLE_MAX_CONE:
            fc = pretzel.full_complex(params)
            base.append(("full:%d,%d" % (m, n), fc, pretzel.full_involution(params, fc), vs))
    out = []
    for key, c, iota, (vs, dual_vs) in base:
        out.append((key, c, iota, vs))
        d = cx.dualize(c)
        out.append((key + ",dual", d, inv.dual_involution(iota, d), dual_vs))
    return out


def _oracle_check(want: tuple[int, int], want_size: int):
    def check(result) -> tuple[str, str | None]:
        size, fast, brute = result
        summary = json.dumps([size, list(fast), list(brute)])
        if size != want_size:
            return summary, "cone has %d generators, expected %d" % (size, want_size)
        if fast != brute:
            return summary, "involutive_vs %r, brute_force_vs %r" % (fast, brute)
        if fast != want:
            return summary, "(lower, upper) %r, closed form %r" % (fast, want)
        return summary, None

    return check


def _oracle_call(c, iota):
    from cfku import cone

    cn = cone.build_cone(c, iota)
    return len(cn.labels), cone.involutive_vs(cn), cone.brute_force_vs(cn)


def oracle_cases(m_max: int = M_MAX) -> list[Case]:
    return [
        Case(
            "oracle:" + key,
            lambda c=c, i=iota: _oracle_call(c, i),
            _oracle_check(want, 2 * len(c.gens)),
        )
        for key, c, iota, want in oracle_inputs(m_max)
    ]


BUILDERS = {"sweep": sweep_cases, "full": full_cases, "oracle": oracle_cases}
