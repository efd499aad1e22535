"""Model complexes and closed-form invariants of the knots P(-2, m, n).

For odd m >= n >= 3 the full complex is one negative staircase plus a
number of acyclic boxes per diagonal, all of one diagonal at one corner
and grading.  Box multiplicities come from the closed form, and one
Layout per pair (box_layout) says where each box sits; the deep checks
of report_dict read the staircase and the layout's blocks (block_hfk)
and tie them to the expected rank table.  The four model families
differ in whether a box sits unpaired on the main diagonal and in the
reflection behaviour of the staircase ends.  A model is defined by its
staircase steps and, for C1, its box, so many pairs share one;
model_triple reduces each model once per process, in both chiralities.

The full complex is a head, the model complex (the staircase and, for
C1, the box its involution couples to it), plus translated copies of one
box, and its involution is the head's plus one square map per pair of
boxes.  Each distinct piece is validated whole once per process (the
staircase and _head per step tuple, _box, _pair); _full_layout extends
the pieces' columns by translation.  Every involution handed out here,
of a model (model_involution_for) or of a full complex (full_involution),
is checked by blocks against those pieces in one linear pass
(_check_layout).

The steps depend on m + n alone, so the pure work that reports repeat
for the same steps is kept per process: the pieces (_staircase_piece,
_head, _box, _pair), the rank tables of the staircase and the box
(_staircase_table, _box_table), n(K) of the steps (_steps_n_of_k) and
the triples of each model (model_triple).  _head's memo serves
model_complex, model_involution_for and the full path; model_triple
reduces a head built by _head's body outside the memo, since it keeps
the triples and never reads that head again.  Each memo holds only
tuples, immutable values or read-only views, and keeps nothing for a
call that raises.  Nothing is kept per pair: classify is not cached, so
it checks n(K) and the main-diagonal parity on every call, and it is
the only caller of box_multiplicities, so every box count read here has
passed those checks.  report_dict classifies its pair once and reads
the triple, the closed form and the block table off that one ModelSpec.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from operator import itemgetter, sub
from types import MappingProxyType
from typing import NamedTuple

from .complexes import (
    BOX_NAMES,
    FilteredComplex,
    SparseMap,
    add_box,
    build_box,
    build_staircase,
    dualize,
    require_valid,
    staircase_n_of_k,
    staircase_names,
)
from .cone import involutive_invariants
from .homology import alexander_poly, genus_detect, hfk_hat
from .involution import (
    Involution,
    involution_from_rules,
    square_pair,
    staircase_with_boxes,
    transposed,
)


@dataclass(frozen=True)
class PretzelParams:
    m: int
    n: int

    def __post_init__(self):
        if self.m % 2 == 0 or self.n % 2 == 0:
            raise ValueError("m and n must be odd")
        if not self.m >= self.n >= 3:
            raise ValueError("need m >= n >= 3")

    @property
    def g(self) -> int:
        return (self.m + self.n) // 2

    @property
    def u(self) -> int:
        return (self.m + self.n - 6) // 2

    @property
    def steps(self) -> tuple[int, ...]:
        """Top-half staircase step lengths, outermost first."""
        return (1, 2) + (1,) * self.u


@dataclass
class ModelSpec:
    family: str  # C1..C4
    v: int
    n_of_k: int
    main_diag_boxes: int  # the unpaired main-diagonal box: 1 for C1, else 0
    boxes: dict[int, int]  # box_multiplicities of the pair


FAMILIES = {(1, 1): "C1", (3, 1): "C2", (3, 3): "C3", (1, 3): "C4"}

# n(K) of the staircase steps, once per step tuple
_steps_n_of_k = functools.cache(staircase_n_of_k)


def classify(params: PretzelParams) -> ModelSpec:
    family = FAMILIES[(params.m % 4, params.n % 4)]
    v = params.u + 2
    if params.m % 4 == params.n % 4:
        n_of_k = (params.m + params.n - 2) // 4
    else:
        n_of_k = (params.m + params.n) // 4
    if n_of_k != _steps_n_of_k(params.steps):
        raise ValueError("n(K) %d disagrees with the staircase steps" % n_of_k)
    mults = box_multiplicities(params)
    main = mults.get(0, 0) % 2
    if main != (1 if family == "C1" else 0):
        raise ValueError(
            "%d main-diagonal boxes have the wrong parity for %s"
            % (mults.get(0, 0), family)
        )
    return ModelSpec(family, v, n_of_k, main, mults)


# ---------------------------------------------------------------------------
# Expected bigraded data


def expected_hfk(params: PretzelParams) -> dict[tuple[int, int], int]:
    """Bigraded ranks (alexander, maslov) -> rank, both halves.

    Rank min(n - 2, g - 2 - i) at (i, g - 1 + i) for 0 <= i <= g - 3,
    rank 1 at (g, 2g) and (g - 1, 2g - 1), and each entry of alexander
    w > 0 mirrored to (-w, k - 2w).
    """
    g, n = params.g, params.n
    table = {(g, 2 * g): 1, (g - 1, 2 * g - 1): 1, (1 - g, 1): 1, (-g, 0): 1}
    for i in range(g - 2):
        table[(i, g - 1 + i)] = table[(-i, g - 1 - i)] = n - 2 if i < g - n else g - 2 - i
    return table


def expected_alexander(params: PretzelParams) -> dict[int, int]:
    """The total Alexander polynomial, exponent -> signed coefficient, in
    increasing exponent.

    t^g - t^(g-1); (-1)^(k-1) k t^(g-k-2) for 1 <= k <= n - 3;
    (-1)^(g-e-1) (n - 2) t^e for |e| <= g - n, which starts and ends
    with +(n - 2) since n is odd; and the mirror t^-e of each term of the
    first two kinds.  So every exponent of 3 - g .. g - 3 has a nonzero
    term (g >= n) and, beyond them, only 1 - g, -g, g - 1 and g.
    """
    g, n = params.g, params.n
    outer = [k if k % 2 else -k for k in range(1, n - 2)]  # at t^(k+2-g)
    middle = [n - 2, 2 - n] * (g - n) + [n - 2]
    coefficients = [1, -1, *outer, *middle, *reversed(outer), -1, 1]
    return dict(zip([-g, 1 - g, *range(3 - g, g - 2), g - 1, g], coefficients))


# ---------------------------------------------------------------------------
# Box multiplicities


def box_multiplicities(params: PretzelParams) -> dict[int, int]:
    """Boxes per diagonal, from the closed form.

    A box on diagonal s contributes ranks 1, 2, 1 on diagonals s+1, s,
    s-1 of the i = 0 slice, so the expected-minus-staircase totals T(w)
    satisfy T(w) = b_{w-1} + 2 b_w + b_{w+1}, which determines every
    b_s from the genus downward.  So if the staircase and the box blocks
    laid out from these counts reproduce the rank table (hfk_match in
    report_dict), they are the only counts that can.

    The first kind of term puts k boxes on diagonals +-(g - 2k - 3) for
    1 <= k <= (n - 5)/2, the second (n - 3)/2 on each diagonal of
    g - n .. n - g in steps of 2; with g >= n no two terms share a
    diagonal.  A fresh dict on each call, and nothing keeps it: its one
    caller is classify, which checks the main-diagonal parity, and a
    report classifies its pair once.
    """
    g, n = params.g, params.n
    half = (n - 3) // 2
    b: dict[int, int] = {}
    for k in range(1, half):
        b[g - 2 * k - 3] = b[2 * k + 3 - g] = k
    if half:
        b.update(dict.fromkeys(range(g - n, n - g - 1, -2), half))
    return b


class Layout(NamedTuple):
    """Where a complex with v steps a side puts its staircase and boxes.

    The staircase sits at 0..2v, then four generators a box: first the
    pairs of each diagonal s > 0 from the top, each box at (ci, cj) just
    before its mirror at (cj, ci), then the main diagonal's boxes.
    blocks holds one entry (corner, Maslov grading of a, count) per
    diagonal s >= 0 from the top; off the main diagonal it stands for
    count boxes at the corner and count mirrors at the transposed corner,
    all with the one grading.  coupled is the offset of the C1 box, the
    first main-diagonal box when that diagonal's count is odd (else
    None); paired, read only by the checks and the involutions, the
    offsets of the others; size the generator count.  The full complex of
    a pair is this layout of its box counts, the C1 model of {0: 1}.
    """

    v: int
    blocks: tuple[tuple[tuple[int, int], int, int], ...]
    coupled: int | None
    size: int

    @property
    def paired(self) -> tuple[int, ...]:
        """The offsets of the boxes but the C1 box, pair by pair."""
        return tuple(k for k in range(2 * self.v + 1, self.size, 4) if k != self.coupled)


def box_layout(v: int, boxes: dict[int, int]) -> Layout:
    """The Layout of v steps a side and boxes[s] boxes on diagonal s.

    The published anchor is written here only: every box on diagonal s
    shares one corner, centred so the corner sum is -2 (s even) or -1
    (s odd), and its a sits at Maslov ci + cj + g + 1, g = v + 1.
    """
    blocks, coupled, k = [], None, 2 * v + 1
    for s in sorted((s for s, count in boxes.items() if s >= 0 and count), reverse=True):
        ci = -1 - s // 2
        cj = s + ci
        blocks.append(((ci, cj), ci + cj + v + 2, boxes[s]))
        if not s and boxes[s] % 2:
            coupled = k
        k += 4 * (2 * boxes[s] if s else boxes[s])
    return Layout(v, tuple(blocks), coupled, k)


@functools.cache
def _box_table() -> MappingProxyType:
    """hfk_hat of the validated box of _box; read-only, since the memo
    keeps it."""
    return MappingProxyType(hfk_hat(_box().complex()))


@functools.cache
def _staircase_table(steps: tuple[int, ...]) -> MappingProxyType:
    """hfk_hat of the validated staircase of these steps, once per step
    tuple per process; read-only, since the memo keeps it."""
    return MappingProxyType(hfk_hat(_staircase_piece(steps).complex()))


def block_hfk(params: PretzelParams) -> tuple[dict[tuple[int, int], int], int]:
    """(rank table, generator count) of the full complex, read off the
    staircase and one box, never assembling the complex.

    The full complex is the direct sum of the staircase and its boxes,
    and the i = 0 slice of a direct sum is the direct sum of the slices,
    so homology, the Euler characteristic and the generator count are
    additive.  A box at corner (i, j) with a at grading ma is the box at
    (0, 0) with a at 0 moved by (i, j) in the plane and by ma in
    grading, which keeps the grading law, the filtration law and d^2 = 0,
    and moves its slice by (j - i, ma - 2i) in (alexander, maslov).  So
    the staircase is validated once per step tuple per process
    (_staircase_table), the one box once per process (_box_table), and
    _block_table adds count times each shifted entry of that box's table,
    at each block's corner and, off the main diagonal, at the mirror's,
    to a plain dict copied from the staircase's.  The counts are
    classify's, so n(K) and the main-diagonal parity are checked.
    """
    return _block_table(params.steps, box_layout(len(params.steps), classify(params).boxes))


def _block_table(steps: tuple[int, ...], layout: Layout) -> tuple[dict[tuple[int, int], int], int]:
    """block_hfk of the pair with these steps and this layout."""
    table = _staircase_table(steps).copy()  # the dict's own copy, not key by key
    get, box = table.get, tuple(_box_table().items())
    for (ci, cj), ma, copies in layout.blocks:
        for i, j in ((ci, cj), (cj, ci))[: 1 if ci == cj else 2]:
            dw, dk = j - i, ma - 2 * i
            for (w, k), rank in box:
                key = (w + dw, k + dk)
                table[key] = get(key, 0) + copies * rank
    return table, layout.size


# ---------------------------------------------------------------------------
# Complexes and involutions, from pieces validated once per process


class _Piece(NamedTuple):
    """A validated complex, as names, columns (maslov, i, j) and arrows, and
    its involution's matrix, all tuples: nothing a caller could change."""

    names: tuple[str, ...]
    columns: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    diff: tuple[tuple[tuple[int, int], int], ...]
    iota: tuple[tuple[tuple[int, int], int], ...]

    def complex(self) -> FilteredComplex:
        return FilteredComplex(list(self.names), *map(list, self.columns), dict(self.diff))


def _piece(c: FilteredComplex, iota: SparseMap) -> _Piece:
    columns = (tuple(c.maslov), tuple(c.i), tuple(c.j))
    return _Piece(tuple(c.labels()), columns, tuple(c.diff.items()), tuple(iota.items()))


@functools.cache
def _staircase_piece(steps: tuple[int, ...]) -> _Piece:
    """The negative staircase with these steps, built and validated once
    per process; every complex of these steps starts from it."""
    return _piece(build_staircase("negative", steps), {})


@functools.cache
def _head(steps: tuple[int, ...], coupled: bool) -> _Piece:
    """The model of these steps and its involution, validated once per
    process: the staircase with the reflection and, when coupled
    (family C1), the box of box_layout's {0: 1} block, checked with the
    staircase as their sum, with the C1 coupling laid over the
    reflection.  The involution goes through involution_from_rules, so
    its index, coverage and law checks all run.  model_triple runs this
    body without the memo (_head.__wrapped__)."""
    v = len(steps)
    c = _staircase_piece(steps).complex()
    if coupled:
        corner, ma, _one = box_layout(v, {0: 1}).blocks[0]
        add_box(c, corner, ma)
        require_valid(c, "direct sum")
    return _piece(c, layout_involution(c, v, {0: int(coupled)}).matrix)


@functools.cache
def _box() -> _Piece:
    """The box at corner (0, 0) with a at Maslov 0, validated once per
    process."""
    return _piece(require_valid(build_box((0, 0), 0), "box"), {})


@functools.cache
def _pair() -> _Piece:
    """Two boxes at corner (0, 0) with a at Maslov 0, and square_pair on
    them, validated once per process.

    It stands for every pair of full_complex: moving the first box by
    (x, y) and its mirror by (y, x), and both gradings by one shift,
    keeps each law.  The grading laws of d and iota and d's filtration
    law read only differences of gradings and positions within an
    entry, and an entry of iota joins a slot (i, j) of one box to
    (j, i) of the other, so the transposed slot moves with it.  The
    entries themselves do not change, nor the parities of the
    directional components, so iota d = d iota and iota^2 = 1 +
    U^-1 Phi Psi still hold entry for entry."""
    c = build_box((0, 0), 0, "_p")
    add_box(c, (0, 0), 0, "_m")
    require_valid(c, "square pair")
    return _piece(c, involution_from_rules(c, square_pair(0, 4)).matrix)


def _misplaced(
    m: SparseMap, entries: tuple[tuple[tuple[int, int], int], ...], offsets: list[int]
) -> int | None:
    """An offset k at which m lacks an entry ((t, s), a) of a piece placed
    at k, U^a at (k + t, k + s), or None when m has them all; one lookup
    an entry and offset."""
    for (t, s), a in entries:
        if set(map(m.get, zip(map(t.__add__, offsets), map(s.__add__, offsets)))) - {a}:
            return next(k for k in offsets if m.get((k + t, k + s)) != a)
    return None


def _check_layout(
    c: FilteredComplex,
    steps: tuple[int, ...],
    layout: Layout,
    rules: SparseMap | None = None,
) -> None:
    """Check in one linear pass that c, and the involution matrix rules
    when given, are valid pieces of these steps at the layout's offsets;
    else raise ValueError naming the block that is not.

    The staircase and a C1 box must equal the head's; every other box
    the validated box translated, gradings and positions relative to its
    a, with its four arrows; and each pair sit at mirrored corners with
    one grading.  The head's and each pair's iota entries must be in
    rules.  Entry counts then leave no d or iota entry outside the
    blocks.  That is every law validate and validate_involution check
    (unique names hold by construction, _full_names): a direct sum of
    valid blocks is valid, and translation keeps each law (_pair).

    No check reads layout.blocks, so where a pair sits is not checked
    here: a box moved off its diagonal with its mirror, the two still
    mirrored with one grading, passes, and so does validate.  The rank
    table then differs, so hfk_match of the deep checks fails on it
    (test_block_moved_off_its_diagonal_fails_both_paths_alike).  Each
    check reads slices of whole columns of c, and only a failed one looks
    for the block to name.
    """
    stair = 2 * layout.v + 1
    coupled, paired, size = layout.coupled, layout.paired, layout.size
    diff, columns = c.diff, (c.maslov, c.i, c.j)
    if {len(col) for col in columns} != {size}:
        raise ValueError("the layout has %d generators, the complex %d" % (size, len(c.maslov)))
    head, box = _head(steps, coupled is not None), _box()
    at = list(range(stair))  # index in c of each generator of the head
    slices = list(zip(columns, head.columns))
    if any(tuple(col[:stair]) != h[:stair] for col, h in slices):
        raise ValueError("the staircase is not the validated head's")
    if coupled is not None:
        at += range(coupled, coupled + 4)
        if any(tuple(col[coupled:coupled + 4]) != h[stair:] for col, h in slices):
            raise ValueError("the C1 box at %d is not the validated head's" % coupled)
    if paired:  # every box, the C1 box too, is the validated box translated
        for col, piece in zip(columns, box.columns):
            for r in range(1, 4):
                if set(map(sub, col[stair + r::4], col[stair::4])) != {piece[r] - piece[0]}:
                    k = next(k for k in paired if col[k + r] - col[k] != piece[r] - piece[0])
                    raise ValueError("the box at %d is not the validated box translated" % k)
        pairs = zip(paired[::2], paired[1::2])
        first, mirror = itemgetter(*paired[::2]), itemgetter(*paired[1::2])
        maslov, col_i, col_j = columns
        if first(col_i) != mirror(col_j) or first(col_j) != mirror(col_i):
            k1, k2 = next(
                (k1, k2) for k1, k2 in pairs if (col_i[k1], col_j[k1]) != (col_j[k2], col_i[k2])
            )
            raise ValueError("the pair at %d, %d is not at mirrored corners" % (k1, k2))
        if first(maslov) != mirror(maslov):
            k1, k2 = next((k1, k2) for k1, k2 in pairs if maslov[k1] != maslov[k2])
            raise ValueError("the mirror at %d of the box at %d has another grading" % (k2, k1))
    if any(diff.get((at[t], at[s])) != a for (t, s), a in head.diff):
        raise ValueError("the differential of the head is not the validated head's")
    k = _misplaced(diff, box.diff, paired)
    if k is not None:
        raise ValueError("the box at %d lacks an arrow of the validated box" % k)
    outside = len(diff) - len(head.diff) - len(box.diff) * len(paired)
    if outside:
        raise ValueError("the differential has %d entries outside the blocks" % outside)
    if rules is None:
        return
    pair_iota = _pair().iota if paired else ()  # a model has no pair to check
    if any(rules.get((at[t], at[s])) != a for (t, s), a in head.iota):
        raise ValueError("iota on the head is not the validated reflection and C1 coupling")
    # each pair's mirror follows its box, so index t of the pair is k + t
    k = _misplaced(rules, pair_iota, paired[::2])
    if k is not None:
        raise ValueError("iota on the pair at %d, %d is not square_pair's" % (k, k + 4))
    outside = len(rules) - len(head.iota) - len(pair_iota) * (len(paired) // 2)
    if outside:
        raise ValueError("iota has %d entries outside the blocks" % outside)


def model_complex(params: PretzelParams) -> FilteredComplex:
    """The staircase; for family C1, summed with the unpaired main-diagonal
    box: a fresh copy of the validated head."""
    return _head(params.steps, bool(classify(params).main_diag_boxes)).complex()


def full_complex(params: PretzelParams) -> FilteredComplex:
    """The staircase plus the boxes of the pair, appended in place as
    box_layout lays out classify's counts, and checked by blocks
    (_check_layout): the head (the staircase and, for C1, the coupled
    box) and every other box are pieces validated once per process, at
    the layout's offsets, each pair at mirrored corners with one grading,
    and no arrow lies outside the blocks.  Where a pair sits is checked
    by hfk_match, not here."""
    spec = classify(params)
    layout = box_layout(spec.v, spec.boxes)
    c = _full_layout(params, layout)
    _check_layout(c, params.steps, layout)
    return c


def _full_layout(params: PretzelParams, layout: Layout) -> FilteredComplex:
    """full_complex before _check_layout, its generator count checked: the
    staircase piece's columns and arrows, then the box piece's, translated
    to each box; names are formatted only when read (_full_names).  The
    head is validated before the box, in the order _check_layout reads."""
    _head(params.steps, layout.coupled is not None)
    stair, box = _staircase_piece(params.steps), _box()
    maslov, col_i, col_j = map(list, stair.columns)
    for (ci, cj), ma, count in layout.blocks:
        corners = ((ci, cj), (cj, ci))[: 1 if ci == cj else 2]
        maslov += [ma + m for _corner in corners for m in box.columns[0]] * count
        col_i += [x + i for x, _y in corners for i in box.columns[1]] * count
        col_j += [y + j for _x, y in corners for j in box.columns[2]] * count
    size, want = len(maslov), 4 + (params.m - 2) * (params.n - 2)
    if size != want:
        raise ValueError("full complex has %d generators, expected %d" % (size, want))
    diff = dict(stair.diff)
    for k in range(len(stair.names), size, 4):
        for (t, s), a in box.diff:
            diff[(k + t, k + s)] = a
    return FilteredComplex(functools.partial(_full_names, layout), maslov, col_i, col_j, diff)


def _full_names(layout: Layout) -> list[str]:
    """The names of the full complex of layout: the staircase's, then
    a, b, c and ue of the t-th box of diagonal s suffixed _p{s}_{t}, of
    its mirror _m{s}_{t}, and of the t-th main-diagonal box _d{t}."""
    names = staircase_names(layout.v)
    for (ci, cj), _ma, count in layout.blocks:
        s = cj - ci
        for t in range(1, count + 1):
            suffixes = ("_p%d_%d" % (s, t), "_m%d_%d" % (s, t)) if s else ("_d%d" % t,)
            names += [name + suffix for suffix in suffixes for name in BOX_NAMES]
    return names


def layout_involution(c: FilteredComplex, v: int, boxes: dict[int, int]) -> Involution:
    """The involution of a complex laid out as box_layout(v, boxes) says,
    validated whole: the reflection on the staircase, the C1 coupling on
    the coupled box and square maps on the other boxes, pair by pair.
    _head builds each head's with it; every other involution here is
    checked by blocks against that head (_checked_involution)."""
    layout = box_layout(v, boxes)
    return involution_from_rules(c, staircase_with_boxes(v, layout.coupled, layout.paired))


def model_involution_for(params: PretzelParams, c: FilteredComplex) -> Involution:
    """layout_involution's matrix on the model complex c of the pair, the
    layout of {0: main_diag_boxes}, checked by blocks with c against the
    head that _head validated, as full_involution is (_check_layout)."""
    spec = classify(params)
    return _checked_involution(c, params.steps, box_layout(spec.v, {0: spec.main_diag_boxes}))


def full_involution(params: PretzelParams, c: FilteredComplex) -> Involution:
    """layout_involution's matrix on c, for the boxes of the pair, checked
    by blocks with c against the head's involution and the square pair,
    each validated once per process (_check_layout): a law of
    validate_involution holds on a block-diagonal map of a direct sum
    when it holds on each block."""
    spec = classify(params)
    return _checked_involution(c, params.steps, box_layout(spec.v, spec.boxes))


def _checked_involution(c: FilteredComplex, steps: tuple[int, ...], layout: Layout) -> Involution:
    """full_involution's matrix and check, on a layout already built."""
    rules = staircase_with_boxes(layout.v, layout.coupled, layout.paired)
    _check_layout(c, steps, layout, rules)
    return Involution(c, rules)


# ---------------------------------------------------------------------------
# Invariants


@dataclass
class InvariantReport:
    m: int
    n: int
    mirrored: bool
    family: str
    v: int
    n_of_k: int
    boxes: dict[int, int]
    V0: int
    V0_lower: int
    V0_upper: int

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.V0, self.V0_lower, self.V0_upper)


def theorem_values(params: PretzelParams, mirrored: bool = False) -> InvariantReport:
    spec = classify(params)
    return InvariantReport(
        params.m, params.n, mirrored, spec.family, spec.v, spec.n_of_k, spec.boxes,
        *_theorem_triple(params, spec.n_of_k, mirrored),
    )


def _theorem_triple(params: PretzelParams, nk: int, mirrored: bool) -> tuple[int, int, int]:
    """The paper's (V0, lower V0, upper V0) of the pair, or of its mirror,
    from n(K) = nk."""
    if not mirrored:
        return (0, 0, -nk)
    if params.m % 4 != params.n % 4 or params.m % 4 == 3:
        return (nk, nk, nk)
    return (nk, nk + 1, nk)


def _chirality(
    c: FilteredComplex, iota: Involution, mirrored: bool
) -> tuple[FilteredComplex, Involution]:
    """(c, iota), or its dual for the mirror: iota transposed onto the
    dual built here, which needs neither dual_involution's guard nor a
    second check.  The full path rebinds both names, so the primal
    objects are freed before the invariants are computed."""
    if mirrored:
        c = dualize(c)
        iota = transposed(iota, c)
    return c, iota


@functools.cache
def model_triple(
    steps: tuple[int, ...], coupled: bool
) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """(V0, lower V0, upper V0) of the model defined by its arguments,
    for the knot and for its mirror.

    The model is the negative staircase with these steps and, when
    coupled (family C1), the main-diagonal box with its coupling laid
    over the reflection; C2-C4 carry the reflection alone, so they share
    a key.  The complex and the involution are a head validated by
    _head's body, run outside its memo (_head.__wrapped__), since this
    memo keeps the triples and no report reads the head again; the
    mirror is their dual through _chirality.  Many pairs share a model,
    so the pair of triples is cached on exactly these arguments, at most
    two entries per m + n.  Only the triples are kept, never a complex
    or an involution, which relabel could change in place.  A call for
    one chirality so also reduces the other: about 0.5 ms at m + n = 42,
    against about 200 ms for one cfku invariants process to start and
    import cfku.
    """
    head = _head.__wrapped__(steps, coupled)
    c = head.complex()
    iota = Involution(c, dict(head.iota))
    return involutive_invariants(c, iota), involutive_invariants(*_chirality(c, iota, True))


def compute_invariants(
    params: PretzelParams, mirrored: bool = False, use_full: bool = False
) -> InvariantReport:
    """Full pipeline: complex, involution, A0-, cone, correction terms.

    The model path classifies the pair on every call, which checks n(K)
    and the box parity, and takes the triple of its chirality from
    model_triple.  The full path lays out the full complex and its
    involution from one layout and checks them together, in one pass."""
    spec = classify(params)
    if use_full:
        layout = box_layout(spec.v, spec.boxes)
        c = _full_layout(params, layout)
        c, iota = _chirality(c, _checked_involution(c, params.steps, layout), mirrored)
        triple = involutive_invariants(c, iota)
    else:
        triple = model_triple(params.steps, bool(spec.main_diag_boxes))[mirrored]
    return InvariantReport(
        params.m, params.n, mirrored, spec.family, spec.v, spec.n_of_k, spec.boxes, *triple,
    )


def _first_difference(expected: dict, computed: dict):
    """The least key at which two tables that compared unequal differ, a
    missing key counting as 0; None if none does."""
    for key in sorted(expected.keys() | computed.keys()):
        if expected.get(key, 0) != computed.get(key, 0):
            return key
    return None


def deep_checks(
    params: PretzelParams, table: dict[tuple[int, int], int], count: int
) -> tuple[dict[str, bool], dict]:
    """The deep checks of a rank table and generator count against the
    closed forms, and their diagnostics: the first differing entry of
    the rank table and of the Alexander polynomial, and the two
    generator counts, each None where the two sides agree.

    The closed forms settle two parts by construction: expected_alexander
    is symmetric with coefficient sum 1, and the top Alexander grading of
    expected_hfk is g (the tests check both for every pair with m <=
    151).  So a polynomial equal to the closed form is symmetric with sum
    1, and a table equal to the closed form has genus g: the table's
    genus is read only when hfk_match has failed, and only a check that
    failed looks for its first difference.

    report_dict passes block_hfk(params); the whole complex,
    hfk_hat(full_complex(params)) and its length, gives the same result.
    """
    alex = alexander_poly(table)
    want_alex = expected_alexander(params)
    want_table = expected_hfk(params)
    want_count = 4 + (params.m - 2) * (params.n - 2)
    hfk_match = table == want_table
    checks = {
        "hfk_match": hfk_match,
        "alexander_match": alex == want_alex,
        "genus_match": hfk_match or genus_detect(table) == params.g,
        "count_match": count == want_count,
    }
    at = None if hfk_match else _first_difference(want_table, table)
    hfk = None if at is None else {
        "alexander": at[0], "maslov": at[1],
        "expected": want_table.get(at, 0), "computed": table.get(at, 0),
    }
    at = None if checks["alexander_match"] else _first_difference(want_alex, alex)
    alexander = None if at is None else {
        "exponent": at, "expected": want_alex.get(at, 0), "computed": alex.get(at, 0),
    }
    counts = None if checks["count_match"] else {"expected": want_count, "computed": count}
    return checks, {"hfk": hfk, "alexander": alexander, "count": counts}


def report_dict(m: int, n: int, mirrored: bool, deep: bool = True) -> dict:
    """JSON-ready report with the verification checks.

    The pair is classified once, which checks n(K) and the box parity,
    and the computed triple (model_triple, as compute_invariants reads
    it), the closed form (as theorem_values reads it) and, with deep, the
    block table (as block_hfk builds it) all come from that one ModelSpec,
    so its box counts are computed once.  A report with a failed check
    also carries "diagnostics": the expected and computed triples and,
    with deep, those of deep_checks.
    """
    params = PretzelParams(m, n)
    spec, steps = classify(params), params.steps
    computed = model_triple(steps, bool(spec.main_diag_boxes))[mirrored]
    expected = _theorem_triple(params, spec.n_of_k, mirrored)
    checks = {"theorem_match": computed == expected}
    block_diagnostics: dict = {}
    if deep:
        table, count = _block_table(steps, box_layout(spec.v, spec.boxes))
        block_checks, block_diagnostics = deep_checks(params, table, count)
        checks.update(block_checks)
    report = {
        "m": m,
        "n": n,
        "mirrored": mirrored,
        "family": spec.family,
        "v": spec.v,
        "nK": spec.n_of_k,
        "boxes": [{"diagonal": s, "count": c} for s, c in sorted(spec.boxes.items())],
        "V0": computed[0],
        "V0_lower": computed[1],
        "V0_upper": computed[2],
        "checks": checks,
    }
    if not all(checks.values()):
        report["diagnostics"] = {
            "expected": list(expected), "computed": list(computed), **block_diagnostics,
        }
    return report
