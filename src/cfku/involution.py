"""Skew-filtered involutions squaring to the Sarkar map.

An involution is a complex and one explicit matrix iota on it, never a
rule.  The builders write the matrix by index, straight from the layout
complexes._staircase and add_box build: z0 at 0, z_r^side at
2r - 2 + side, and the a, b, c and ue of a box at k, k + 1, k + 2 and
k + 3.  reflection, square_pair and c1_coupling are the three pieces,
and staircase_with_boxes lays them side by side.  No builder reads a
name, and the validator reads the columns of the complex.

The validator is the sole source of truth, because the printed formula
lists these maps come from are easy to mistranscribe.  It checks the
grading law of shift 0 and the exact transposed slot on every entry
(the slot implies the skew-filtration), iota d = d iota, and iota^2 =
sarkar(c), the Sarkar map 1 + U^-1 Phi Psi, computed there and not
stored.  It runs in involution_from_rules, on every involution built
whole and on pretzel's pieces once per process: the involution of each
model and the square pair.  pretzel.full_involution is not validated
whole: pretzel._check_layout proves that it is the head's involution
and copies of the validated square pair, block by block, which keeps
every law.  The involution of a dual complex is the transpose of a
validated one and is not checked again: every one of those laws
transposes.  dual_involution guards that its complex is the dual;
transposed, for a caller that has just built the dual, does not.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import FilteredComplex, SparseMap, _compose, dualize, sarkar


@dataclass
class Involution:
    complex: FilteredComplex
    matrix: SparseMap


def involution_from_rules(c: FilteredComplex, rules: SparseMap) -> Involution:
    """The involution of c with matrix rules, {(target, source): a} for
    the entry U^a, once it is validated.

    Every index must be a generator of c and every generator must have
    an image; a matrix that breaks a law raises with the violation list.
    """
    n = len(c.maslov)
    outside = sorted({k for key in rules for k in key if not 0 <= k < n})
    if outside:
        raise ValueError("involution names indices %s, not generators of the complex" % outside)
    missing = set(range(n)) - {s for _t, s in rules}
    if missing:
        names = c.labels()
        raise ValueError("no involution image for %s" % sorted(names[k] for k in missing))
    iota = Involution(c, rules)
    problems = validate_involution(iota)
    if problems:
        raise ValueError("invalid involution: %s" % problems)
    return iota


def validate_involution(iota: Involution) -> list[str]:
    """All violated laws; empty list means ok.

    The entry laws come first, since the products need a graded map."""
    c, f = iota.complex, iota.matrix
    labels, maslov, ci, cj = c.labels(), c.maslov, c.i, c.j
    problems = []
    for (t, s), a in f.items():
        if maslov[t] - 2 * a != maslov[s]:
            problems.append(
                "grading law broken on U^%d %s in iota(%s)" % (a, labels[t], labels[s])
            )
        if (ci[t] - a, cj[t] - a) != (cj[s], ci[s]):
            problems.append(
                "term U^%d %s of iota(%s) not in the transposed slot" % (a, labels[t], labels[s])
            )
    if problems:
        return problems
    if _compose(f, c.diff) != _compose(c.diff, f):
        problems.append("does not commute with the differentials")
    if _compose(f, f) != sarkar(c):
        problems.append("iota^2 differs from the Sarkar map")
    return problems


def reflection(v: int) -> SparseMap:
    """Reflection across i = j of a staircase with v steps a side: z0 is
    fixed, and z_r^1 and z_r^2 swap."""
    f = {(0, 0): 0}
    for r in range(1, v + 1):
        f[(2 * r, 2 * r - 1)] = f[(2 * r - 1, 2 * r)] = 0
    return f


def square_pair(k1: int, k2: int) -> SparseMap:
    """The standard square map between the boxes at k1 and k2, which sit
    at mirrored corners: a1 -> a2 + U^-1 ue2, a2 -> a1, b <-> c across
    the pair and ue1 <-> ue2."""
    return {
        (k2, k1): 0, (k2 + 3, k1): -1, (k2 + 2, k1 + 1): 0, (k2 + 1, k1 + 2): 0,
        (k2 + 3, k1 + 3): 0, (k1, k2): 0, (k1 + 2, k2 + 1): 0, (k1 + 1, k2 + 2): 0,
        (k1 + 3, k2 + 3): 0,
    }


def c1_coupling(k: int) -> SparseMap:
    """The C1 coupling of the staircase with the box at k: a -> a + z0,
    b -> c + z1_2, c -> b + z1_1, ue -> ue, and z0 -> z0 + U^-1 ue, which
    adds a term to the reflection's image of z0."""
    return {
        (k, k): 0, (0, k): 0, (k + 2, k + 1): 0, (2, k + 1): 0, (k + 1, k + 2): 0,
        (1, k + 2): 0, (k + 3, k + 3): 0, (0, 0): 0, (k + 3, 0): -1,
    }


def staircase_with_boxes(v: int, coupled: int | None, paired: list[int]) -> SparseMap:
    """The reflection on 0..2v, the C1 coupling on the box at coupled
    (None for no coupled box), and the square map on each consecutive
    pair of the boxes at the offsets paired."""
    f = reflection(v)
    if coupled is not None:
        f.update(c1_coupling(coupled))
    for k1, k2 in zip(paired[::2], paired[1::2]):
        f.update(square_pair(k1, k2))
    return f


def standard_staircase_involution(c: FilteredComplex) -> Involution:
    return involution_from_rules(c, reflection((len(c.maslov) - 1) // 2))


def dual_involution(iota: Involution, dual_c: FilteredComplex) -> Involution:
    """Transpose of iota, acting on dual_c, which must be dualize of its complex.

    dualize keeps generator order, so the matrix transposes slot for slot.
    Each law validate_involution checks transposes, and the transpose of
    sarkar(c) is sarkar(dualize(c)), so the result is valid without a
    second check.  The guard is the test dual_c == dualize(c): equal
    names, columns and arrows.
    """
    if dual_c != dualize(iota.complex):
        raise ValueError("dual_involution needs the dual of the involution's complex")
    return transposed(iota, dual_c)


def transposed(iota: Involution, dual_c: FilteredComplex) -> Involution:
    """iota's matrix transposed slot for slot onto dual_c, unchecked: for
    a caller that has just built dual_c as dualize of iota's complex."""
    return Involution(dual_c, {(s, t): a for (t, s), a in iota.matrix.items()})


def figure_eight_involution(c: FilteredComplex) -> Involution:
    """The box a, b, c, ue at 0..3 coupled with x at 4: a -> a + x,
    b <-> c, ue -> ue, x -> x + U^-1 ue."""
    return involution_from_rules(
        c, {(0, 0): 0, (4, 0): 0, (2, 1): 0, (1, 2): 0, (3, 3): 0, (4, 4): 0, (3, 4): -1}
    )


def identity_involution(c: FilteredComplex) -> Involution:
    return involution_from_rules(c, {(k, k): 0 for k in range(len(c.maslov))})
