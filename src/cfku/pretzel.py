"""Model complexes and closed-form invariants of the knots P(-2, m, n).

For odd m >= n >= 3 the full complex is one negative staircase plus a
number of acyclic boxes per diagonal, all of one diagonal at one corner
and grading (box_blocks).  Box multiplicities come from the closed
form; the deep checks of report_dict read the staircase and its box
blocks (block_hfk) and tie them to the expected rank table.  The four
model families differ in whether a box sits unpaired on the main
diagonal and in the reflection behaviour of the staircase ends.  A
model is defined by its staircase steps and, for C1, its box, so many
pairs share one; model_triple builds and validates each model once per
process and reduces it in both chiralities.

The steps depend on m + n alone, so the pure work that a report repeats
for the same steps or pair is kept per process, as model_triple is: the
staircase's rank table (built and validated once per step tuple), the
box's, n(K) of the steps and the box counts of the pair.  Each memo
holds only immutable values or read-only views, and keeps nothing for a
call that raises.  classify is not cached: it checks n(K) and the
main-diagonal parity on every call, through the name box_multiplicities.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType

from .complexes import (
    FilteredComplex,
    _staircase,
    add_box,
    build_box,
    build_staircase,
    dualize,
    require_valid,
    staircase_n_of_k,
)
from .cone import involutive_invariants
from .homology import alexander_poly, genus_detect, hfk_hat
from .involution import (
    Involution,
    dual_involution,
    involution_from_rules,
    staircase_with_boxes,
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
    """Bigraded ranks (alexander, maslov) -> rank, both halves."""
    g, n = params.g, params.n
    table: dict[tuple[int, int], int] = {(g, 2 * g): 1, (g - 1, 2 * g - 1): 1}
    for i in range(g - n, g - 2):
        if i >= 0 and g - 2 - i > 0:
            table[(i, g - 1 + i)] = g - 2 - i
    for i in range(0, g - n):
        table[(i, g - 1 + i)] = n - 2
    for (w, k), rank in list(table.items()):
        if w > 0:
            table[(-w, k - 2 * w)] = rank
    return table


def expected_alexander(params: PretzelParams) -> dict[int, int]:
    """The total Alexander polynomial, exponent -> signed coefficient."""
    g, n = params.g, params.n
    out: dict[int, int] = {}

    def add(e, c):
        out[e] = out.get(e, 0) + c

    add(g, 1)
    add(g - 1, -1)
    for k in range(1, n - 2):
        add(g - k - 2, (-1) ** (k - 1) * k)
        add(k + 2 - g, (-1) ** (k - 1) * k)
    for k in range(n - g, g - n + 1):
        add(k, (-1) ** (g - k - 1) * (n - 2))
    add(1 - g, -1)
    add(-g, 1)
    return {e: c for e, c in sorted(out.items()) if c}


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

    A fresh dict on each call, from the (diagonal, count) pairs that
    _box_counts keeps once per (g, n).
    """
    return dict(_box_counts(params.g, params.n))


@functools.cache
def _box_counts(g: int, n: int) -> tuple[tuple[int, int], ...]:
    b: dict[int, int] = {}
    for k in range(1, (n - 5) // 2 + 1):
        s = g - 2 * k - 3
        b[s] = b.get(s, 0) + k
        b[-s] = b.get(-s, 0) + k
    for s in range(g - n, n - g - 1, -2):
        if (n - 3) // 2:
            b[s] = b.get(s, 0) + (n - 3) // 2
    return tuple((s, c) for s, c in b.items() if c)


def box_blocks(params: PretzelParams) -> list[tuple[tuple[int, int], int, int]]:
    """The boxes of the full complex as blocks (corner, Maslov grading of
    a, count), one per diagonal s >= 0 from the top, counts from
    box_multiplicities.

    A block at corner (ci, cj) off the main diagonal stands for count
    boxes there and count mirrors at (cj, ci), all with the one grading.
    The published anchor is written here only: every box on diagonal s
    shares one corner, centred so the corner sum is -2 (s even) or -1
    (s odd), and its a sits at Maslov ci + cj + g + 1.
    """
    mults = box_multiplicities(params)
    blocks = []
    for s in sorted((s for s in mults if s >= 0), reverse=True):
        ci = -1 - s // 2
        cj = s + ci
        blocks.append(((ci, cj), ci + cj + params.g + 1, mults[s]))
    return blocks


@functools.cache
def _box_table() -> MappingProxyType:
    """hfk_hat of the box at corner (0, 0) with a at Maslov 0, validated
    once per process; read-only, since the memo keeps it."""
    return MappingProxyType(hfk_hat(require_valid(build_box((0, 0), 0), "box")))


@functools.cache
def _staircase_table(steps: tuple[int, ...]) -> tuple[MappingProxyType, int]:
    """(hfk_hat, generator count) of the negative staircase with these
    steps, which depend on m + n alone: built and validated once per
    step tuple per process, the table read-only.  A staircase that fails
    validation raises, and functools.cache keeps no entry for it."""
    staircase = build_staircase("negative", steps)
    return MappingProxyType(hfk_hat(staircase)), len(staircase.gens)


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
    each block adds count shifted copies of that box's table, once at
    its corner and, off the main diagonal, once at the mirror's, to a
    Counter copied from the staircase's.
    """
    stair, count = _staircase_table(params.steps)
    box = _box_table()
    table = Counter(stair)
    for (ci, cj), ma, copies in box_blocks(params):
        for i, j in {(ci, cj), (cj, ci)}:
            for (w, k), rank in box.items():
                table[(w + j - i, k + ma - 2 * i)] += copies * rank
            count += 4 * copies
    return dict(table), count


# ---------------------------------------------------------------------------
# Complexes and involutions


def _model(steps: tuple[int, ...], coupled: bool) -> FilteredComplex:
    """The negative staircase with these steps, summed with the C1 box at
    corner (-1, -1) when coupled, its a at Maslov len(steps) = u + 2 =
    g - 1."""
    if not coupled:
        return build_staircase("negative", steps)
    c = _staircase("negative", steps)
    add_box(c, (-1, -1), len(steps))
    return require_valid(c, "direct sum")


def model_complex(params: PretzelParams) -> FilteredComplex:
    """The staircase; for family C1, summed with the unpaired main-diagonal box."""
    return _model(params.steps, bool(classify(params).main_diag_boxes))


def full_complex(params: PretzelParams) -> FilteredComplex:
    """The staircase plus the boxes of box_blocks, appended in place and
    validated once as their direct sum.

    The layout, which layout_involution reads: the staircase at 0..2v,
    then four generators a box, first the pairs of each diagonal s > 0
    from the top, each box at (ci, cj) just before its mirror at
    (cj, ci), then the main diagonal's boxes, a C1 complex's unpaired
    box first.  Labels, read only for printing, suffix the t-th box of
    a diagonal with _p{s}_{t}, _m{s}_{t} or _d{t}.
    """
    c = _staircase("negative", params.steps)
    for (ci, cj), ma, count in box_blocks(params):
        s = cj - ci
        for t in range(1, count + 1):
            if s == 0:
                add_box(c, (ci, cj), ma, "_d%d" % t)
            else:
                add_box(c, (ci, cj), ma, "_p%d_%d" % (s, t))
                add_box(c, (cj, ci), ma, "_m%d_%d" % (s, t))
    require_valid(c, "direct sum")
    want = 4 + (params.m - 2) * (params.n - 2)
    if len(c.gens) != want:
        raise ValueError(
            "full complex has %d generators, expected %d" % (len(c.gens), want)
        )
    return c


def layout_involution(c: FilteredComplex, v: int, boxes: dict[int, int]) -> Involution:
    """The involution of a complex in full_complex's layout, with v steps a
    side and boxes[s] boxes on diagonal s: the reflection on the
    staircase, the C1 coupling on the first main-diagonal box when that
    diagonal's count is odd, and square maps on the other boxes, pair by
    pair.  The model complexes are this layout with boxes {0: 1} (C1)
    or none."""
    paired = 2 * sum(count for s, count in boxes.items() if s > 0)
    offsets = list(range(2 * v + 1, len(c.gens), 4))
    coupled = offsets.pop(paired) if boxes.get(0, 0) % 2 else None
    return involution_from_rules(c, staircase_with_boxes(v, coupled, offsets))


def model_involution_for(params: PretzelParams, c: FilteredComplex) -> Involution:
    spec = classify(params)
    return layout_involution(c, spec.v, {0: spec.main_diag_boxes})


def full_involution(params: PretzelParams, c: FilteredComplex) -> Involution:
    spec = classify(params)
    return layout_involution(c, spec.v, spec.boxes)


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
    nk = spec.n_of_k
    if not mirrored:
        triple = (0, 0, -nk)
    elif params.m % 4 != params.n % 4 or params.m % 4 == 3:
        triple = (nk, nk, nk)
    else:
        triple = (nk, nk + 1, nk)
    return InvariantReport(
        params.m, params.n, mirrored, spec.family, spec.v, nk, spec.boxes, *triple,
    )


def _chirality(
    c: FilteredComplex, iota: Involution, mirrored: bool
) -> tuple[FilteredComplex, Involution]:
    """(c, iota), or its dual for the mirror.  The full path rebinds both
    names, so the primal objects are freed before the invariants are
    computed."""
    if mirrored:
        c = dualize(c)
        iota = dual_involution(iota, c)
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
    a key.  The complex and the involution are built and validated once,
    and the mirror is their dual through _chirality.  Many pairs share a
    model, so the pair of triples is cached on exactly these arguments,
    at most two entries per m + n.  Only the triples are kept, never a
    complex or an involution, which relabel could change in place.  A
    call for one chirality so also reduces the other: about 0.5 ms at
    m + n = 42, against about 200 ms for one cfku invariants process to
    start and import cfku.
    """
    c = _model(steps, coupled)
    iota = layout_involution(c, len(steps), {0: int(coupled)})
    return involutive_invariants(c, iota), involutive_invariants(*_chirality(c, iota, True))


def compute_invariants(
    params: PretzelParams, mirrored: bool = False, use_full: bool = False
) -> InvariantReport:
    """Full pipeline: complex, involution, A0-, cone, correction terms.

    The model path classifies the pair on every call, which checks n(K)
    and the box parity, and takes the triple of its chirality from
    model_triple."""
    spec = classify(params)
    if use_full:
        c = full_complex(params)
        c, iota = _chirality(c, full_involution(params, c), mirrored)
        triple = involutive_invariants(c, iota)
    else:
        triple = model_triple(params.steps, bool(spec.main_diag_boxes))[mirrored]
    return InvariantReport(
        params.m, params.n, mirrored, spec.family, spec.v, spec.n_of_k, spec.boxes, *triple,
    )


def _first_difference(expected: dict, computed: dict):
    """The least key at which the two tables differ, a missing key
    counting as 0; None if they agree."""
    if expected == computed:
        return None
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

    report_dict passes block_hfk(params); the whole complex,
    hfk_hat(full_complex(params)) and its length, gives the same result.
    """
    alex = alexander_poly(table)
    want_alex = expected_alexander(params)
    want_table = expected_hfk(params)
    want_count = 4 + (params.m - 2) * (params.n - 2)
    checks = {
        "hfk_match": table == want_table,
        "alexander_match": (
            alex == want_alex
            and sum(alex.values()) == 1
            and all(alex.get(-w) == c for w, c in alex.items())
        ),
        "genus_match": genus_detect(table) == params.g,
        "count_match": count == want_count,
    }
    at = _first_difference(want_table, table)
    hfk = None if at is None else {
        "alexander": at[0], "maslov": at[1],
        "expected": want_table.get(at, 0), "computed": table.get(at, 0),
    }
    at = _first_difference(want_alex, alex)
    alexander = None if at is None else {
        "exponent": at, "expected": want_alex.get(at, 0), "computed": alex.get(at, 0),
    }
    counts = None if count == want_count else {"expected": want_count, "computed": count}
    return checks, {"hfk": hfk, "alexander": alexander, "count": counts}


def report_dict(m: int, n: int, mirrored: bool, deep: bool = True) -> dict:
    """JSON-ready report with the verification checks.

    A report with a failed check also carries "diagnostics": the expected
    and computed triples and, with deep, those of deep_checks.
    """
    params = PretzelParams(m, n)
    computed = compute_invariants(params, mirrored)
    expected = theorem_values(params, mirrored)
    checks = {"theorem_match": computed.triple == expected.triple}
    diagnostics: dict = {
        "expected": list(expected.triple),
        "computed": list(computed.triple),
    }
    if deep:
        block_checks, block_diagnostics = deep_checks(params, *block_hfk(params))
        checks.update(block_checks)
        diagnostics.update(block_diagnostics)
    report = {
        "m": m,
        "n": n,
        "mirrored": mirrored,
        "family": computed.family,
        "v": computed.v,
        "nK": computed.n_of_k,
        "boxes": [
            {"diagonal": s, "count": c}
            for s, c in sorted(computed.boxes.items())
        ],
        "V0": computed.V0,
        "V0_lower": computed.V0_lower,
        "V0_upper": computed.V0_upper,
        "checks": checks,
    }
    if not all(checks.values()):
        report["diagnostics"] = diagnostics
    return report
