"""Skew-filtered involutions squaring to the Sarkar map.

An involution is stored as an explicit matrix, never as a rule; the
validator (chain map, skew filtration, Maslov preservation, iota^2 equal
to sigma, exact slot transposition) is the sole source of truth, because
the printed formula lists these maps come from are easy to mistranscribe.
It runs once, in involution_from_rules.  The involution of a dual complex
is the transpose of a validated one and is not checked again: every one
of those laws transposes.
"""

from __future__ import annotations

from dataclasses import dataclass
import re

from .complexes import (
    ChainMap,
    FilteredComplex,
    SparseMap,
    _compose,
    add_term,
    sarkar,
    validate_chain_map,
)


@dataclass
class Involution:
    map: ChainMap
    sigma: ChainMap


Rules = dict[str, list[tuple[str, int]]]


def involution_from_rules(c: FilteredComplex, rules: Rules) -> Involution:
    """Build iota from label rules {source: [(target, U-exponent), ...]}.

    Every generator must get a rule.  The result is validated; a failing
    rule set raises with the violation list.
    """
    matrix: SparseMap = {}
    seen = set()
    slot = c.indices()
    for src, targets in rules.items():
        s = slot[src]
        seen.add(src)
        for tgt, e in targets:
            add_term(matrix, (slot[tgt], s), e)
    missing = {g.label for g in c.gens} - seen
    if missing:
        raise ValueError("no involution rule for %s" % sorted(missing))
    iota = Involution(
        ChainMap(c, c, matrix, "skew-filtered", maslov_shift=0), sarkar(c)
    )
    problems = validate_involution(iota)
    if problems:
        raise ValueError("invalid involution: %s" % problems)
    return iota


def validate_involution(iota: Involution) -> list[str]:
    problems = validate_chain_map(iota.map)
    # iota^2 is compared only for a valid chain map, whose products are graded
    if not problems and _compose(iota.map.matrix, iota.map.matrix) != iota.sigma.matrix:
        problems.append("iota^2 differs from sigma")
    if iota.map.maslov_shift != 0:
        problems.append("Maslov shift is not 0")
    if iota.map.filtration_kind != "skew-filtered":
        problems.append("not marked skew-filtered")
    c = iota.map.source
    for (t, s), a in iota.map.matrix.items():
        gs, gt = c.gens[s], c.gens[t]
        if (gt.i - a, gt.j - a) != (gs.j, gs.i):
            problems.append(
                "term U^%d %s of iota(%s) not in the transposed slot"
                % (a, gt.label, gs.label)
            )
    return problems


def _staircase_labels(c: FilteredComplex, prefix: str) -> int:
    """The number of steps v if the labels form a staircase, else raise."""
    pat = re.compile(r"^%s(\d+)(?:_([12]))?$" % re.escape(prefix))
    v = 0
    for g in c.gens:
        m = pat.match(g.label)
        if not m or (m.group(1) == "0") != (m.group(2) is None):
            raise ValueError("input not a staircase: generator %r" % g.label)
        v = max(v, int(m.group(1)))
    if len(c.gens) != 2 * v + 1:
        raise ValueError("input not a staircase: %d generators" % len(c.gens))
    return v


def staircase_reflection_rules(c: FilteredComplex, prefix: str = "z") -> Rules:
    v = _staircase_labels(c, prefix)
    rules: Rules = {prefix + "0": [(prefix + "0", 0)]}
    for r in range(1, v + 1):
        rules["%s%d_1" % (prefix, r)] = [("%s%d_2" % (prefix, r), 0)]
        rules["%s%d_2" % (prefix, r)] = [("%s%d_1" % (prefix, r), 0)]
    return rules


def standard_staircase_involution(c: FilteredComplex, prefix: str = "z") -> Involution:
    """Reflection across i = j: z_r^1 and z_r^2 swap, z0 is fixed."""
    return involution_from_rules(c, staircase_reflection_rules(c, prefix))


def square_pair_rules(
    c: FilteredComplex, suffix1: str, suffix2: str, slot: dict[str, int] | None = None
) -> Rules:
    """The standard square map between two boxes at mirrored corners.

    slot is c.indices(); callers pairing many boxes build it once."""
    if slot is None:
        slot = c.indices()
    u1 = c.gens[slot["ue" + suffix1]]
    u2 = c.gens[slot["ue" + suffix2]]
    if (u1.i, u1.j) != (u2.j, u2.i):
        raise ValueError(
            "box corners (%d,%d) and (%d,%d) are not mirrored"
            % (u1.i, u1.j, u2.i, u2.j)
        )
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


def c1_box_coupling_rules(box_suffix: str = "", prefix: str = "z") -> Rules:
    """The coupled staircase/box part of the C1 involution."""
    a, b, cc, ue = ("a" + box_suffix, "b" + box_suffix, "c" + box_suffix,
                    "ue" + box_suffix)
    return {
        a: [(a, 0), (prefix + "0", 0)],
        b: [(cc, 0), (prefix + "1_2", 0)],
        cc: [(b, 0), (prefix + "1_1", 0)],
        ue: [(ue, 0)],
        prefix + "0": [(prefix + "0", 0), (ue, -1)],
    }


def model_involution(
    model: str, c: FilteredComplex, box_suffix: str = "", prefix: str = "z"
) -> Involution:
    """iota for the pretzel model complexes C1..C4.

    C2-C4 are pure staircases carrying the reflection; C1 couples the
    reflection with its main-diagonal box.  The involution of a dual
    model is dual_involution of the primal one.
    """
    if model not in ("C1", "C2", "C3", "C4"):
        raise ValueError("unknown model %r" % model)
    if model == "C1":
        rules = staircase_reflection_rules_without_z0(c, prefix)
        rules.update(c1_box_coupling_rules(box_suffix, prefix))
    else:
        rules = staircase_reflection_rules(c, prefix)
    return involution_from_rules(c, rules)


def staircase_reflection_rules_without_z0(
    c: FilteredComplex, prefix: str = "z"
) -> Rules:
    """z_r^1 and z_r^2 swap, for r = 1, 2, ... while z_r^1 is in c."""
    slot = c.indices()
    rules: Rules = {}
    r = 1
    while "%s%d_1" % (prefix, r) in slot:
        one, two = "%s%d_1" % (prefix, r), "%s%d_2" % (prefix, r)
        rules[one], rules[two] = [(two, 0)], [(one, 0)]
        r += 1
    return rules


def dual_involution(iota: Involution, dual_c: FilteredComplex) -> Involution:
    """Transpose of iota, acting on dual_c, which must be dualize of its complex.

    dualize keeps generator order, so the matrices transpose slot for slot.
    Each law validate_involution checks transposes, and the transpose of
    sarkar(c) is sarkar(dualize(c)), so the result is valid without a
    second check.  The guard is the test dual_c == dualize(c), made
    field by field and arrow by arrow against c without building a dual.
    """
    c = iota.map.source
    if (
        len(dual_c.gens) != len(c.gens)
        or len(dual_c.diff) != len(c.diff)
        or any(d != (g.label, -g.maslov, -g.i, -g.j) for d, g in zip(dual_c.gens, c.gens))
        or any(c.diff.get((s, t)) != a for (t, s), a in dual_c.diff.items())
    ):
        raise ValueError("dual_involution needs the dual of the involution's complex")

    def transpose(f: ChainMap) -> ChainMap:
        matrix = {(s, t): a for (t, s), a in f.matrix.items()}
        return ChainMap(dual_c, dual_c, matrix, f.filtration_kind, f.maslov_shift)

    return Involution(transpose(iota.map), transpose(iota.sigma))


def figure_eight_involution(c: FilteredComplex) -> Involution:
    return involution_from_rules(
        c,
        {
            "a": [("a", 0), ("x", 0)],
            "b": [("c", 0)],
            "c": [("b", 0)],
            "ue": [("ue", 0)],
            "x": [("x", 0), ("ue", -1)],
        },
    )


def identity_involution(c: FilteredComplex) -> Involution:
    return involution_from_rules(c, {g.label: [(g.label, 0)] for g in c.gens})
