"""(Z + Z)-filtered, Z-graded chain complexes over F2[U, U^-1].

A complex is a finite list of generators, each anchored at the plane
position (i, j) of its U^0 representative, together with a sparse
differential whose entries are powers of U.  The U-action translates a
generator down the diagonal, so a finite basis presents the whole
infinitely generated complex.

Every sparse map (a differential, Phi, Psi, the Sarkar map, an
involution's matrix, the A0- differential) stores an entry as the
one exponent a of U^a: the grading law fixes a for each pair of
generators, so an entry of a graded map is never a sum of two powers.
Sums over F2 go through add_term, which cancels equal powers and rejects
two different ones as not graded; add_shifted adds a whole column
U^shift col by the same rule.  Phi, Psi and the Sarkar map are plain
SparseMaps on their complex; an involution is one more, held with its
complex in involution.Involution.

A0- = C{i<=0, j<=0} is the one subquotient that the invariants read.
subquotient builds it on every generator, and restrict_to_a0 is the one
loop that carries an exponent map of the complex onto its basis: the
differential there, and an involution's matrix in cone.

Conventions used throughout:

  * U has Maslov degree -2 and drops the plane position by (1, 1).
  * A differential entry U^a from x to y must satisfy the grading law
    M(y) - 2a = M(x) - 1 and the filtration law
    (i_y - a, j_y - a) <= (i_x, j_x) componentwise.
  * Staircase generators are z0, z_r^1 (upper-left path) and z_r^2
    (its transpose); step r joins z_{r-1} to z_r and the constructor
    takes the step lengths of the top half listed from z_v inward.
  * Generators are laid out by index, and every builder and check
    works on indices: z0 at 0, z_r^side at 2r - 2 + side, and a box
    appended at k has a, b, c, ue at k..k+3.  Labels serve printing
    (and naming generators in JSON and messages) only.
  * Maslov gradings of staircases are normalized so the tower of
    H(B0-) = H(C{i<=0}) sits in grading 0.

Complexes are validated once, where they are built or read: through
require_valid in build_staircase and direct_sum here, in
render.complex_from_json, and in pretzel on its pieces, each once per
process: the staircase of each step tuple (build_staircase), the C1
model complex of each (its staircase plus a box appended in place by
add_box, checked as their sum), the box and the square pair.  A C2-C4
model complex is its staircase.  A full complex is never validated
whole: pretzel._check_layout proves in one linear pass that it is the
validated staircase, C1 box and box laid out, with no arrow between
two blocks, which is what validate would find.
dualize takes a valid complex and returns its mirror unchecked, since
the grading law, the filtration law and d^2 = 0 all transpose.
subquotient and everything downstream take their input as valid;
homology.sparse_homology still checks d^2 = 0 on every differential it
is given, on F2 supports through d_squared_support, as validate does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, TypeVar

# (target index, source index) -> a, for the entry U^a
SparseMap = dict[tuple[int, int], int]
Key = TypeVar("Key")


class Generator(NamedTuple):
    label: str
    maslov: int
    i: int
    j: int


@dataclass
class FilteredComplex:
    gens: list[Generator]
    # diff[(t, s)] = a: the boundary of gens[s] contains U^a gens[t]
    diff: SparseMap = field(default_factory=dict)

    def indices(self) -> dict[str, int]:
        """label -> index, for many lookups.  Built on each call, since
        relabel changes gens in place."""
        return {g.label: k for k, g in enumerate(self.gens)}


@dataclass
class SubquotientComplex:
    """The F2[U]-complex A0- = C{i<=0, j<=0}, as subquotient builds it.

    basis[k] = (generator index in parent, U-power k0 of the translate);
    maslov[k] is the grading of U^k0 x; diff[(t, s)] = e means U^e, e >= 0.
    cone.cancel_units returns one whose basis is what survives of an A0-
    basis and whose diff is the differential left after cancellation.
    """

    parent: FilteredComplex
    basis: list[tuple[int, int]]
    maslov: list[int]
    diff: SparseMap

    def labels(self) -> list[str]:
        out = []
        for g, k0 in self.basis:
            label = self.parent.gens[g].label
            if k0 > 0:
                label = "U^%d %s" % (k0, label) if k0 > 1 else "U %s" % label
            elif k0 < 0:
                label = "U^%d %s" % (k0, label)
            out.append(label)
        return out


# ---------------------------------------------------------------------------
# Validation


_NOT_GRADED = "entry %r sums U^%d and U^%d: map is not graded"


def add_term(m: dict[Key, int], key: Key, a: int) -> None:
    """Add U^a to entry key over F2; a second, different power is an error.

    m is a SparseMap, or one column {target: a} of one."""
    b = m.pop(key, None)
    if b is None:
        m[key] = a
    elif b != a:
        raise ValueError(_NOT_GRADED % (key, b, a))


def add_shifted(m: dict[Key, int], col: dict[Key, int], shift: int) -> None:
    """Add U^shift col to m over F2, entry by entry as add_term does."""
    for key, e in col.items():
        a = e + shift
        b = m.pop(key, None)
        if b is None:
            m[key] = a
        elif b != a:
            raise ValueError(_NOT_GRADED % (key, b, a))


def _compose(a: SparseMap, b: SparseMap) -> SparseMap:
    """Sparse product a after b of graded maps, summed as add_term does."""
    by_source: dict[int, list[tuple[int, int]]] = {}
    for (t, s), e in a.items():
        by_source.setdefault(s, []).append((t, e))
    out: SparseMap = {}
    for (mid, s), e in b.items():
        for t, e2 in by_source.get(mid, ()):
            key = (t, s)
            x = e2 + e
            y = out.pop(key, None)
            if y is None:
                out[key] = x
            elif y != x:
                raise ValueError(_NOT_GRADED % (key, y, x))
    return out


def validate(c: FilteredComplex) -> list[str]:
    """All violated structural invariants; empty list means ok."""
    problems = []
    gens = c.gens
    labels = [label for label, _m, _i, _j in gens]
    if len(set(labels)) != len(labels):
        problems.append("duplicate generator labels")
    for (t, s), a in c.diff.items():
        s_label, s_maslov, si, sj = gens[s]
        t_label, t_maslov, ti, tj = gens[t]
        if t_maslov - 2 * a != s_maslov - 1:
            problems.append(
                "grading law broken on U^%d %s in d(%s)" % (a, t_label, s_label)
            )
        if not (ti - a <= si and tj - a <= sj):
            problems.append(
                "filtration law broken on U^%d %s in d(%s)" % (a, t_label, s_label)
            )
    if problems:
        return problems
    for s, t in sorted(d_squared_support(c.diff)):
        problems.append("d^2 != 0: d^2(%s) contains %s" % (labels[s], labels[t]))
    return problems


def d_squared_support(diff: SparseMap) -> set[tuple[int, int]]:
    """The (s, t) joined by an odd number of paths s -> mid -> t of diff.

    Once the grading law holds, it fixes the exponent of every entry of
    d^2, so an entry vanishes exactly when an even number of paths make
    it up: this set is empty exactly when d^2 = 0.  validate and
    homology.sparse_homology call it only after checking that law.
    """
    targets: dict[int, set[int]] = {}
    for t, s in diff:
        targets.setdefault(s, set()).add(t)
    odd: dict[int, set[int]] = {}  # s -> the t with oddly many paths s -> t
    for mid, s in diff:
        ts = targets.get(mid)
        if ts:
            odd.setdefault(s, set()).symmetric_difference_update(ts)
    return {(s, t) for s, ts in odd.items() for t in ts}


# ---------------------------------------------------------------------------
# Constructors


def require_valid(c: FilteredComplex, what: str) -> FilteredComplex:
    """c, once validate finds nothing; else ValueError naming what c is."""
    problems = validate(c)
    if problems:
        raise ValueError("%s invalid: %s" % (what, problems))
    return c


def build_staircase(sign: str, step_lengths: tuple[int, ...]) -> FilteredComplex:
    """Staircase with the given top-half step lengths, z_v first, validated.

    sign "positive" gives the L-space-knot shape (z0 a source for odd v);
    "negative" the mirrored shape.  Gradings are normalized so that the
    tower of H(B0-) sits in grading 0: sources sit in grading 2 n(K) on a
    negative staircase and 1 - 2 n(K) on a positive one, sinks one lower.
    """
    return require_valid(_staircase(sign, step_lengths), "staircase")


def _staircase(sign: str, step_lengths: tuple[int, ...]) -> FilteredComplex:
    """build_staircase without its validation, for a staircase that is
    about to be checked as a summand.

    z0 is generator 0 and z_r^side is generator 2r - 2 + side, so every
    arrow is written by index as its source is laid out.
    """
    if sign not in ("positive", "negative"):
        raise ValueError("sign must be positive or negative")
    if not step_lengths:
        raise ValueError("step list must be nonempty")
    if any(l <= 0 for l in step_lengths):
        raise ValueError("step lengths must be positive")
    v = len(step_lengths)
    negative = sign == "negative"
    nk = staircase_n_of_k(step_lengths)
    top = 2 * nk if negative else 1 - 2 * nk
    # z_r is a source exactly when r has the parity of v on a negative
    # staircase, and the other parity on a positive one
    source = [(r % 2 == v % 2) == negative for r in range(v + 1)]
    gens = [Generator("z0", top if source[0] else top - 1, 0, 0)]
    diff: SparseMap = {(1, 0): 0, (2, 0): 0} if source[0] else {}
    i = j = 0
    for r in range(1, v + 1):
        # walk the upper-left path, where step r is vertical exactly when
        # z_r is a source; side 2 is the transpose
        if source[r]:
            j += step_lengths[v - r]
        else:
            i -= step_lengths[v - r]
        m = top if source[r] else top - 1
        gens.append(Generator("z%d_1" % r, m, i, j))
        gens.append(Generator("z%d_2" % r, m, j, i))
        if source[r]:
            for s in (2 * r - 1, 2 * r):
                diff[(s - 2 if r > 1 else 0, s)] = 0
                if r < v:
                    diff[(s + 2, s)] = 0
    return FilteredComplex(gens, diff)


def staircase_n_of_k(step_lengths: tuple[int, ...]) -> int:
    """Total vertical-arrow length in the top half of a negative staircase
    with these steps (equals the alternating sum of the Alexander jumps)."""
    v = len(step_lengths)
    return sum(l for r, l in enumerate(reversed(step_lengths), start=1) if r % 2 == v % 2)


def add_box(
    c: FilteredComplex,
    diagonal_corner: tuple[int, int],
    a_maslov: int | None = None,
    suffix: str = "",
) -> None:
    """Append to c, in place and unchecked, the acyclic one-by-one box
    with inner corner at the given position.

    Generators a, b, c and the corner generator ue (the U-translate the
    figures label Ue sits one diagonal step further in).  Differentials
    da = b + c, db = dc = ue.  Default grading puts a at i + j + 2.
    """
    i, j = diagonal_corner
    ma = i + j + 2 if a_maslov is None else a_maslov
    k = len(c.gens)
    c.gens += (
        Generator("a" + suffix, ma, i + 1, j + 1),
        Generator("b" + suffix, ma - 1, i, j + 1),
        Generator("c" + suffix, ma - 1, i + 1, j),
        Generator("ue" + suffix, ma - 2, i, j),
    )
    c.diff.update({(k + 1, k): 0, (k + 2, k): 0, (k + 3, k + 1): 0, (k + 3, k + 2): 0})


def build_box(
    diagonal_corner: tuple[int, int], a_maslov: int | None = None, suffix: str = ""
) -> FilteredComplex:
    """The box of add_box on its own, unchecked."""
    c = FilteredComplex([])
    add_box(c, diagonal_corner, a_maslov, suffix)
    return c


def build_lspace_staircase(ws: tuple[int, ...]) -> tuple[FilteredComplex, int]:
    """Positive staircase of the L-space knot with Alexander jumps at ws."""
    if not ws or any(a <= 0 for a in ws) or any(
        b <= a for a, b in zip(ws, ws[1:])
    ):
        raise ValueError("need 0 < w_1 < ... < w_v")
    steps_from_z0 = [w - prev for prev, w in zip((0,) + ws, ws)]
    steps = tuple(reversed(steps_from_z0))
    c = build_staircase("positive", steps)
    n_of_k = sum(w * (-1) ** (len(ws) - 1 - k) for k, w in enumerate(ws))
    if n_of_k != staircase_n_of_k(steps):
        raise ValueError("n(K) %d disagrees with the staircase steps" % n_of_k)
    return c, n_of_k


def dualize(c: FilteredComplex) -> FilteredComplex:
    """Mirror complex: gradings and positions negate, arrows transpose.

    Generator order and labels are kept; c is taken as valid."""
    gens = [Generator(label, -maslov, -i, -j) for label, maslov, i, j in c.gens]
    diff = {(s, t): a for (t, s), a in c.diff.items()}
    return FilteredComplex(gens, diff)


def direct_sum(cs: list[FilteredComplex]) -> FilteredComplex:
    """The summed complex, validated; summands may be unchecked boxes."""
    gens = []
    diff = {}
    offset = 0
    for c in cs:
        gens.extend(c.gens)
        for (t, s), a in c.diff.items():
            diff[(t + offset, s + offset)] = a
        offset += len(c.gens)
    return require_valid(FilteredComplex(gens, diff), "direct sum")


# ---------------------------------------------------------------------------
# A0-


def subquotient(c: FilteredComplex) -> SubquotientComplex:
    """A0- = C{i<=0, j<=0} as an F2[U]-complex.

    Its basis is every generator x of c, in order, as U^k0 x with
    k0 = max(i, j), the minimal translate inside the quadrant; k0 may be
    negative.  The differential is c's, carried over by restrict_to_a0.
    """
    basis = [(k, max(i, j)) for k, (_label, _m, i, j) in enumerate(c.gens)]
    maslov = [g.maslov - 2 * k0 for g, (_k, k0) in zip(c.gens, basis)]
    a0 = SubquotientComplex(c, basis, maslov, {})
    a0.diff = restrict_to_a0(a0, c.diff, "differential")
    return a0


def restrict_to_a0(a0: SubquotientComplex, m: SparseMap, what: str) -> SparseMap:
    """The exponent map m of a0.parent on the A0- basis of a0.

    a0 is subquotient(a0.parent), whose basis index is the generator
    index, so the entry U^a from s to t becomes U^(k0[s] + a - k0[t]).
    A filtered or skew-filtered map preserves the quadrant, so a
    negative power means m is neither and raises ValueError naming what
    m is and both generators.
    """
    basis, gens = a0.basis, a0.parent.gens
    out: SparseMap = {}
    for (t, s), a in m.items():
        e = basis[s][1] + a - basis[t][1]
        if e < 0:
            raise ValueError(
                "%s does not restrict to A0-: U^%d from %s to %s"
                % (what, e, gens[s].label, gens[t].label)
            )
        out[(t, s)] = e
    return out


# ---------------------------------------------------------------------------
# Directional components, Phi/Psi and the Sarkar map


def phi_psi(c: FilteredComplex) -> tuple[SparseMap, SparseMap]:
    """Phi keeps the arrows of odd i-drop, Psi those of odd j-drop.

    Both are filtered chain maps of Maslov shift -1."""
    gens = c.gens
    phi: SparseMap = {}
    psi: SparseMap = {}
    for (t, s), a in c.diff.items():
        _ls, _ms, si, sj = gens[s]
        _lt, _mt, ti, tj = gens[t]
        if (si - ti + a) % 2:
            phi[(t, s)] = a
        if (sj - tj + a) % 2:
            psi[(t, s)] = a
    return phi, psi


def sarkar(c: FilteredComplex) -> SparseMap:
    """The map Id + U^-1 Phi Psi; a filtered chain map of shift 0."""
    phi, psi = phi_psi(c)
    matrix = {(k, k): 0 for k in range(len(c.gens))}
    add_shifted(matrix, _compose(phi, psi), -1)
    return matrix


# ---------------------------------------------------------------------------
# Worked examples


def unknot_complex() -> FilteredComplex:
    return FilteredComplex([Generator("u", 0, 0, 0)], {})


def right_trefoil_complex() -> FilteredComplex:
    """Figure-1 staircase: da = b + c, with a = z0 relabeled."""
    c = build_staircase("positive", (1,))
    relabel(c, {"z0": "a", "z1_1": "b", "z1_2": "c"})
    return c


def left_trefoil_complex() -> FilteredComplex:
    """Negative staircase with db = dc = a."""
    c = build_staircase("negative", (1,))
    relabel(c, {"z0": "a", "z1_1": "b", "z1_2": "c"})
    return c


def figure_eight_complex() -> FilteredComplex:
    """One box at corner (-1,-1) plus a lone generator x at the origin."""
    box = build_box((-1, -1), a_maslov=0)
    x = FilteredComplex([Generator("x", 0, 0, 0)], {})
    return direct_sum([box, x])


def relabel(c: FilteredComplex, mapping: dict[str, str]) -> None:
    for k, g in enumerate(c.gens):
        if g.label in mapping:
            c.gens[k] = Generator(mapping[g.label], g.maslov, g.i, g.j)
