"""(Z + Z)-filtered, Z-graded chain complexes over F2[U, U^-1], as columns.

A complex is a finite basis held as three int columns, the Maslov
grading and the plane position (i, j) of each generator's U^0
representative, and a sparse differential whose entries are powers of
U.  The U-action translates a generator down the diagonal, so a finite
basis presents the whole infinitely generated complex.  Names are kept
apart from the columns and formatted only where they are read.

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
    works on indices and columns: z0 at 0, z_r^side at 2r - 2 + side,
    and a box appended at k has a, b, c, ue at k..k+3.
  * Maslov gradings of staircases are normalized so the tower of
    H(B0-) = H(C{i<=0}) sits in grading 0.

Complexes are validated once, where they are built or read: through
require_valid in build_staircase and direct_sum here, in
render.complex_from_json, and in pretzel on its pieces, each once per
process.  A full complex is never validated whole: pretzel._check_layout
proves in one linear pass over its columns that it is those pieces laid
out.  dualize returns the mirror of a valid complex unchecked, since the
grading law, the filtration law and d^2 = 0 all transpose.  subquotient
and everything downstream take their input as valid;
homology.sparse_homology still checks d^2 = 0 on every differential it
is given, on F2 supports through d_squared_support, as validate does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import neg
from typing import Callable, NamedTuple, TypeVar

# (target index, source index) -> a, for the entry U^a
SparseMap = dict[tuple[int, int], int]
Key = TypeVar("Key")
BOX_NAMES = ("a", "b", "c", "ue")


class Generator(NamedTuple):
    label: str
    maslov: int
    i: int
    j: int


@dataclass(eq=False)
class FilteredComplex:
    """Generator k sits at (i[k], j[k]) in grading maslov[k], and
    diff[(t, s)] = a means the boundary of generator s holds U^a
    generator t.  names is the list of names, or, from a builder that
    knows them in closed form, a function that formats it where names are
    read (labels).  Complexes with equal names, columns and diff are equal.
    """

    names: list[str] | Callable[[], list[str]]
    maslov: list[int]
    i: list[int]
    j: list[int]
    diff: SparseMap = field(default_factory=dict)

    def labels(self) -> list[str]:
        return self.names() if callable(self.names) else self.names

    def __eq__(self, other) -> bool:
        same = isinstance(other, FilteredComplex) and self.diff == other.diff
        return same and self.gens == other.gens

    @property
    def gens(self) -> list[Generator]:
        """A fresh list of the generators, for printers and tests: changing
        it does not change the complex."""
        return list(map(Generator, self.labels(), self.maslov, self.i, self.j))

    def indices(self) -> dict[str, int]:
        """label -> index, for many lookups."""
        return {label: k for k, label in enumerate(self.labels())}


def from_gens(gens: list[Generator], diff: SparseMap | None = None) -> FilteredComplex:
    """The complex on a list of Generators, taken apart into columns."""
    return FilteredComplex(*([g[f] for g in gens] for f in range(4)), diff or {})


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
        names, prefix = self.parent.labels(), {0: "", 1: "U "}
        return [prefix.get(k0, "U^%d " % k0) + names[g] for g, k0 in self.basis]


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
    """Add U^shift col to m over F2, entry by entry through add_term."""
    for key, e in col.items():
        add_term(m, key, e + shift)


def by_source(m: SparseMap) -> dict[int, list[tuple[int, int]]]:
    """The columns of m: source s -> [(target, exponent), ...]."""
    cols: dict[int, list[tuple[int, int]]] = {}
    for (t, s), e in m.items():
        cols.setdefault(s, []).append((t, e))
    return cols


def _compose(a: SparseMap, b: SparseMap) -> SparseMap:
    """Sparse product a after b of graded maps, summed as add_term does."""
    cols = by_source(a)
    out: SparseMap = {}
    for (mid, s), e in b.items():
        for t, e2 in cols.get(mid, ()):
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
    labels, maslov, ci, cj = c.labels(), c.maslov, c.i, c.j
    if len(set(labels)) != len(labels):
        problems.append("duplicate generator labels")
    for (t, s), a in c.diff.items():
        if maslov[t] - 2 * a != maslov[s] - 1:
            problems.append("grading law broken on U^%d %s in d(%s)" % (a, labels[t], labels[s]))
        if not (ci[t] - a <= ci[s] and cj[t] - a <= cj[s]):
            problems.append(
                "filtration law broken on U^%d %s in d(%s)" % (a, labels[t], labels[s])
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
    c = FilteredComplex(staircase_names(v), [top if source[0] else top - 1], [0], [0])
    diff = c.diff = {(1, 0): 0, (2, 0): 0} if source[0] else {}
    i = j = 0
    for r in range(1, v + 1):
        # walk the upper-left path, where step r is vertical exactly when
        # z_r is a source; side 2 is the transpose
        if source[r]:
            j += step_lengths[v - r]
        else:
            i -= step_lengths[v - r]
        c.maslov += (top if source[r] else top - 1,) * 2
        c.i += (i, j)
        c.j += (j, i)
        if source[r]:
            for s in (2 * r - 1, 2 * r):
                diff[(s - 2 if r > 1 else 0, s)] = 0
                if r < v:
                    diff[(s + 2, s)] = 0
    return c


def staircase_names(v: int) -> list[str]:
    return ["z0"] + ["z%d_%d" % (r, side) for r in range(1, v + 1) for side in (1, 2)]


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
    k = len(c.maslov)
    c.names = c.labels() + [name + suffix for name in BOX_NAMES]
    c.maslov += (ma, ma - 1, ma - 1, ma - 2)
    c.i += (i + 1, i, i + 1, i)
    c.j += (j + 1, j + 1, j, j)
    c.diff.update({(k + 1, k): 0, (k + 2, k): 0, (k + 3, k + 1): 0, (k + 3, k + 2): 0})


def build_box(
    diagonal_corner: tuple[int, int], a_maslov: int | None = None, suffix: str = ""
) -> FilteredComplex:
    """The box of add_box on its own, unchecked."""
    c = FilteredComplex([], [], [], [])
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
    """Mirror complex: the three columns negate and the keys of diff
    transpose.  Generator order and names are kept; c is taken as valid."""
    columns = (list(map(neg, col)) for col in (c.maslov, c.i, c.j))
    return FilteredComplex(c.names, *columns, {(s, t): a for (t, s), a in c.diff.items()})


def direct_sum(cs: list[FilteredComplex]) -> FilteredComplex:
    """The summed complex, validated; summands may be unchecked boxes."""
    out = FilteredComplex([], [], [], [])
    for c in cs:
        k = len(out.maslov)
        out.diff.update({(t + k, s + k): a for (t, s), a in c.diff.items()})
        parts = (c.labels(), c.maslov, c.i, c.j)
        for col, part in zip((out.names, out.maslov, out.i, out.j), parts):
            col += part
    return require_valid(out, "direct sum")


# ---------------------------------------------------------------------------
# A0-


def subquotient(c: FilteredComplex) -> SubquotientComplex:
    """A0- = C{i<=0, j<=0} as an F2[U]-complex.

    Its basis is every generator x of c, in order, as U^k0 x with
    k0 = max(i, j), the minimal translate inside the quadrant; k0 may be
    negative.  Both read the columns of c, and the differential is c's,
    carried over by restrict_to_a0.
    """
    k0 = list(map(max, c.i, c.j))
    a0 = SubquotientComplex(c, list(enumerate(k0)), [m - 2 * k for m, k in zip(c.maslov, k0)], {})
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
    basis = a0.basis
    out: SparseMap = {}
    for (t, s), a in m.items():
        e = basis[s][1] + a - basis[t][1]
        if e < 0:
            names = a0.parent.labels()
            raise ValueError(
                "%s does not restrict to A0-: U^%d from %s to %s" % (what, e, names[s], names[t])
            )
        out[(t, s)] = e
    return out


# ---------------------------------------------------------------------------
# Directional components, Phi/Psi and the Sarkar map


def phi_psi(c: FilteredComplex) -> tuple[SparseMap, SparseMap]:
    """Phi keeps the arrows of odd i-drop, Psi those of odd j-drop.

    Both are filtered chain maps of Maslov shift -1."""
    ci, cj = c.i, c.j
    phi: SparseMap = {}
    psi: SparseMap = {}
    for (t, s), a in c.diff.items():
        if (ci[s] - ci[t] + a) % 2:
            phi[(t, s)] = a
        if (cj[s] - cj[t] + a) % 2:
            psi[(t, s)] = a
    return phi, psi


def sarkar(c: FilteredComplex) -> SparseMap:
    """The map Id + U^-1 Phi Psi; a filtered chain map of shift 0."""
    phi, psi = phi_psi(c)
    matrix = {(k, k): 0 for k in range(len(c.maslov))}
    add_shifted(matrix, _compose(phi, psi), -1)
    return matrix


# ---------------------------------------------------------------------------
# Worked examples


def unknot_complex() -> FilteredComplex:
    return FilteredComplex(["u"], [0], [0], [0])


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
    x = FilteredComplex(["x"], [0], [0], [0])
    return direct_sum([box, x])


def relabel(c: FilteredComplex, mapping: dict[str, str]) -> None:
    c.names = [mapping.get(label, label) for label in c.labels()]
