"""Renderings: JSON, Graphviz DOT, and ASCII plane grids.

JSON output is stable and round-trips through the standard parser; DOT
output draws the differential as a digraph with U-power edge labels;
the ASCII grid prints generator multiplicities per plane position, which
reproduces the dot-and-box diagrams of the source figures.
"""

from __future__ import annotations

import json
from collections import Counter

from .complexes import FilteredComplex, Generator, SubquotientComplex, from_gens, validate


def complex_to_json(c: FilteredComplex) -> dict:
    labels = c.labels()
    return {
        "generators": [g._asdict() for g in c.gens],
        "differential": [
            {"source": labels[s], "target": labels[t], "upowers": [a]}
            for (t, s), a in sorted(c.diff.items())
        ],
    }


def _typed(x, kind: type, what: str):
    """x, which must be exactly of type kind (so a bool is no int)."""
    if type(x) is not kind:
        raise ValueError(
            "invalid complex document: %s %r is not of type %s" % (what, x, kind.__name__)
        )
    return x


_GENERATOR_FIELDS = (("label", str), ("maslov", int), ("i", int), ("j", int))


def complex_from_json(d: dict) -> FilteredComplex:
    """Read and validate a complex document; any fault raises ValueError.

    Every arrow carries exactly one U-power, as in any graded complex.
    """
    try:
        gens = [
            Generator(*[_typed(g[key], kind, key) for key, kind in _GENERATOR_FIELDS])
            for g in _typed(d["generators"], list, "generators")
        ]
        c = from_gens(gens)
        slot = c.indices()
        for e in _typed(d["differential"], list, "differential"):
            key = (slot[e["target"]], slot[e["source"]])
            if key in c.diff:
                raise ValueError(
                    "invalid complex document: repeated arrow %s -> %s"
                    % (e["source"], e["target"])
                )
            powers = _typed(e["upowers"], list, "upowers")
            if len(powers) != 1:
                raise ValueError(
                    "invalid complex document: arrow %s -> %s needs one U-power, not %r"
                    % (e["source"], e["target"], powers)
                )
            c.diff[key] = _typed(powers[0], int, "U-power")
    except KeyError as exc:
        raise ValueError(
            "invalid complex document: missing field or unknown generator %s" % exc
        ) from None
    except TypeError as exc:  # a document, generator or arrow that is no object
        raise ValueError("invalid complex document: %s" % exc) from None
    problems = validate(c)
    if problems:
        raise ValueError("invalid complex document: %s" % problems)
    return c


def subquotient_to_json(sq: SubquotientComplex) -> dict:
    labels = sq.labels()
    return {
        "region": "A0minus",
        "generators": [
            {"label": lab, "maslov": m} for lab, m in zip(labels, sq.maslov)
        ],
        "differential": [
            {"source": labels[s], "target": labels[t], "upowers": [e]}
            for (t, s), e in sorted(sq.diff.items())
        ],
    }


def _edge_label(a: int) -> str:
    return "" if a == 0 else "U" if a == 1 else "U^%d" % a


def render_dot(c: FilteredComplex, name: str = "complex") -> str:
    lines = ["digraph %s {" % name, "  rankdir=LR;", "  node [shape=circle];"]
    labels = c.labels()
    for g in c.gens:
        lines.append(
            '  "%s" [label="%s\\n(%d,%d) M=%d"];' % (g.label, g.label, g.i, g.j, g.maslov)
        )
    for (t, s), a in sorted(c.diff.items()):
        label = _edge_label(a)
        attr = ' [label="%s"]' % label if label else ""
        lines.append('  "%s" -> "%s"%s;' % (labels[s], labels[t], attr))
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_ascii(c: FilteredComplex) -> str:
    """Plane grid of generator counts, j increasing upward."""
    counts = Counter(zip(c.i, c.j))
    imin, imax, jmin, jmax = min(c.i), max(c.i), min(c.j), max(c.j)
    width = max(len(str(i)) for i in range(imin, imax + 1))
    width = max(width, max(len(str(n)) for n in counts.values()), 1) + 1
    lines = []
    for j in range(jmax, jmin - 1, -1):
        row = ["%4d |" % j]
        for i in range(imin, imax + 1):
            n = counts.get((i, j), 0)
            row.append((str(n) if n else ".").rjust(width))
        lines.append("".join(row))
    lines.append("     +" + "-" * ((imax - imin + 1) * width))
    lines.append("      " + "".join(str(i).rjust(width) for i in range(imin, imax + 1)))
    return "\n".join(lines) + "\n"


def generator_table(c: FilteredComplex) -> str:
    lines = ["%-12s %7s %5s %5s" % ("label", "maslov", "i", "j")]
    for g in c.gens:
        lines.append("%-12s %7d %5d %5d" % (g.label, g.maslov, g.i, g.j))
    return "\n".join(lines) + "\n"


def report_table(report: dict) -> str:
    """Human-readable rendering of the invariant report dict."""
    head = "P(-2,%d,%d)%s" % (
        report["m"], report["n"], " mirror" if report["mirrored"] else ""
    )
    lines = [
        head,
        "  family %s, staircase steps %d, n(K) = %d" % (
            report["family"], report["v"], report["nK"]
        ),
        "  boxes: %s" % (
            ", ".join(
                "%+d: %d" % (b["diagonal"], b["count"]) for b in report["boxes"]
            ) or "none"
        ),
        "  V0 = %d, lower V0 = %d, upper V0 = %d" % (
            report["V0"], report["V0_lower"], report["V0_upper"]
        ),
    ]
    for check, ok in report["checks"].items():
        lines.append("  %-16s %s" % (check, "MATCH" if ok else "MISMATCH"))
    return "\n".join(lines) + "\n"


def to_json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
