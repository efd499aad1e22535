"""Skew-filtered involutions squaring to the Sarkar map.

An involution is a complex and one explicit matrix iota on it, never a
rule.  The validator is the sole source of truth, because the printed
formula lists these maps come from are easy to mistranscribe.  It checks
the grading law of shift 0 and the exact transposed slot on every entry
(the slot implies the skew-filtration), iota d = d iota, and iota^2 =
sarkar(c), the Sarkar map 1 + U^-1 Phi Psi, computed there and not
stored.  It runs once, in involution_from_rules.  The involution of a
dual complex is the transpose of a validated one and is not checked
again: every one of those laws transposes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import FilteredComplex, SparseMap, _compose, add_term, sarkar


@dataclass
class Involution:
    complex: FilteredComplex
    matrix: SparseMap


Rules = dict[str, list[tuple[str, int]]]


def involution_from_rules(
    c: FilteredComplex, rules: Rules, slot: dict[str, int] | None = None
) -> Involution:
    """Build iota from label rules {source: [(target, U-exponent), ...]}.

    Every generator must get a rule, and a rule may name only labels of
    c.  The result is validated; a failing rule set raises with the
    violation list.  slot is c.indices(); callers that already hold it
    pass it in.
    """
    matrix: SparseMap = {}
    seen = set()
    if slot is None:
        slot = c.indices()
    try:
        for src, targets in rules.items():
            s = slot[src]
            seen.add(src)
            for tgt, e in targets:
                add_term(matrix, (slot[tgt], s), e)
    except KeyError as missing_label:
        raise ValueError(
            "involution rule names %r, which is not a generator of the complex"
            % missing_label.args[0]
        ) from None
    missing = {g.label for g in c.gens} - seen
    if missing:
        raise ValueError("no involution rule for %s" % sorted(missing))
    iota = Involution(c, matrix)
    problems = validate_involution(iota)
    if problems:
        raise ValueError("invalid involution: %s" % problems)
    return iota


def validate_involution(iota: Involution) -> list[str]:
    """All violated laws; empty list means ok.

    The entry laws come first, since the products need a graded map."""
    c, f = iota.complex, iota.matrix
    gens = c.gens
    problems = []
    for (t, s), a in f.items():
        s_label, s_maslov, si, sj = gens[s]
        t_label, t_maslov, ti, tj = gens[t]
        if t_maslov - 2 * a != s_maslov:
            problems.append(
                "grading law broken on U^%d %s in iota(%s)" % (a, t_label, s_label)
            )
        if (ti - a, tj - a) != (sj, si):
            problems.append(
                "term U^%d %s of iota(%s) not in the transposed slot"
                % (a, t_label, s_label)
            )
    if problems:
        return problems
    if _compose(f, c.diff) != _compose(c.diff, f):
        problems.append("does not commute with the differentials")
    if _compose(f, f) != sarkar(c):
        problems.append("iota^2 differs from the Sarkar map")
    return problems


def staircase_reflection_rules(
    c: FilteredComplex, slot: dict[str, int] | None = None
) -> Rules:
    """Reflection across i = j: z0 is fixed, and z_r^1 and z_r^2 swap for
    r = 1, 2, ... while both are in c.

    A complex without z0 raises; a generator the walk does not reach is
    left without a rule, which involution_from_rules rejects.  slot is
    c.indices(), as in square_pair_rules.
    """
    if slot is None:
        slot = c.indices()
    if "z0" not in slot:
        raise ValueError("input not a staircase: no generator 'z0'")
    rules: Rules = {"z0": [("z0", 0)]}
    r = 1
    while True:
        one, two = "z%d_1" % r, "z%d_2" % r
        if one not in slot or two not in slot:
            return rules
        rules[one], rules[two] = [(two, 0)], [(one, 0)]
        r += 1


def standard_staircase_involution(c: FilteredComplex) -> Involution:
    return involution_from_rules(c, staircase_reflection_rules(c))


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


def c1_box_coupling_rules(box_suffix: str = "") -> Rules:
    """The coupled staircase/box part of the C1 involution.

    Laid over staircase_reflection_rules with update, its z0 rule
    replaces the reflection's."""
    a, b, cc, ue = ("a" + box_suffix, "b" + box_suffix, "c" + box_suffix,
                    "ue" + box_suffix)
    return {
        a: [(a, 0), ("z0", 0)],
        b: [(cc, 0), ("z1_2", 0)],
        cc: [(b, 0), ("z1_1", 0)],
        ue: [(ue, 0)],
        "z0": [("z0", 0), (ue, -1)],
    }


def model_involution(model: str, c: FilteredComplex) -> Involution:
    """iota for the pretzel model complexes C1..C4.

    C2-C4 are pure staircases carrying the reflection; C1 couples the
    reflection with its main-diagonal box.  The involution of a dual
    model is dual_involution of the primal one.
    """
    if model not in ("C1", "C2", "C3", "C4"):
        raise ValueError("unknown model %r" % model)
    rules = staircase_reflection_rules(c)
    if model == "C1":
        rules.update(c1_box_coupling_rules())
    return involution_from_rules(c, rules)


def dual_involution(iota: Involution, dual_c: FilteredComplex) -> Involution:
    """Transpose of iota, acting on dual_c, which must be dualize of its complex.

    dualize keeps generator order, so the matrix transposes slot for slot.
    Each law validate_involution checks transposes, and the transpose of
    sarkar(c) is sarkar(dualize(c)), so the result is valid without a
    second check.  The guard is the test dual_c == dualize(c), made
    field by field and arrow by arrow against c without building a dual.
    """
    c = iota.complex
    if (
        len(dual_c.gens) != len(c.gens)
        or len(dual_c.diff) != len(c.diff)
        or any(d != (lab, -m, -i, -j) for d, (lab, m, i, j) in zip(dual_c.gens, c.gens))
        or any(c.diff.get((s, t)) != a for (t, s), a in dual_c.diff.items())
    ):
        raise ValueError("dual_involution needs the dual of the involution's complex")
    return Involution(dual_c, {(s, t): a for (t, s), a in iota.matrix.items()})


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
