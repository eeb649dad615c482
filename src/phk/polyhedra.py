"""Rational polyhedra: halfspace form, generator form, and partial openness.

A ``ClosedPolyhedron`` is a finite system of weak rows ``normal . x <= offset``
in canonical form: normals are primitive integer vectors, no row is implied by
the others, and rows are sorted, so structural equality is meaningful.  The
whole space is the zero-row system; the empty set is the distinguished
``EmptySet`` value and never a row system.

A ``PartiallyOpenPolyhedron`` marks a subset of carrier rows as strict.  For a
canonical carrier the strict region, when nonempty, is automatically dense in
the carrier (faces are extreme, so removing a union of faces keeps convexity
and density), hence the closure of the set is exactly the carrier.  A set
is valid when built, so no operation checks it: built field by field it
runs ``validate``.  ``make_set`` collapses an empty strict region to
``EmptySet``, and refuses a strict row that is not a carrier row while its
hyperplane still touches the carrier, because no carrier-plus-strict-rows
value describes that set; its sets, like the hulls, are proven valid and
skip the check.  Canonicalization reads closed rows only; ``make_set``
alone decides which strict markings a set keeps.

Canonicalization runs on integers, fraction-free as in Bareiss 1968: each
input row is read once into its primitive integer normal and its offset
scaled alike (``linalg.primitive_row``).  Parallel rows merge, strict rows
are matched to the carrier, and the emptiness and redundancy LPs run, all
on those integer normals; only the kept carrier rows get ``Fraction``
normals.

Generator form (``VRep``) lists vertices, extreme rays, and a lineality
basis.  Conversion in both directions is exact: vertices are enumerated as
feasible rank-n active sets, extreme rays as rank-(n-1) active subsets of the
recession cone, with lineality split off first through an exact
nullspace/rowspace restriction.  Both walks visit the linearly independent
row subsets depth-first in increasing row order, on the rows scaled to
integers: a row joins by one ``linalg.eliminate`` step, a row that depends
on the chosen ones is skipped with every superset, and each vertex or ray
is checked against every row by the sign of one integer entry.  A walk over
more than ``CONVERSION_SUBSET_CAP`` row subsets, counted as C(m, size)
before any step, is refused before it starts.

Membership runs on integers: ``row_signs`` clears a point of its
denominators once by ``linalg.scaled`` and hands it to the kernel
``_signs``, which compares integers over one denominator with the carrier
rows scaled to integers once per set (each row flat, its offset last), and
returns only the sign of ``normal . x - offset`` per row.  The integer
samplers call the kernel directly.  ``contains`` and the closed-form
route's row checks read those signs; the face route, the LP certificate
check and Fourier-Motzkin elimination keep ``dot``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .errors import InputError, InvalidSetError, ScaleLimitError
from .linalg import (
    Vec,
    _entries,
    dot,
    eliminate,
    integer_rows,
    is_zero_vec,
    nullspace_basis,
    primitive,
    primitive_row,
    scaled,
    spaces,
    vec,
    vneg,
    zero_vec,
)
from .lp import Row, StrictRow, SupportLP, strict_system_feasible
from .scalars import rat

# Most row subsets one generator conversion walk may visit.  Each costs at
# most one integer elimination step over the rows and a sign check against
# every row: on a 2-vCPU VM about 0.01 ms in 2-D and 3-D and 0.06 ms for 17
# rows in general position in 8-D, so a walk at the cap takes seconds.  A
# 7-D box counts 6,435 subsets in all and visits fewer, as dependent rows
# are skipped.
CONVERSION_SUBSET_CAP = 100_000


class ClosedPolyhedron(NamedTuple):
    dim: int
    rows: tuple[Row, ...]


class EmptySet(NamedTuple):
    """The distinguished empty set.  Carries an ambient dimension for ops
    whose result depends on it (the JSON shorthand leaves it implicit)."""

    dim: int = 1


class SetRecord:
    """Derived data of one set, each field filled on first use.

    Shared: ``member`` (a point of a set with strict rows: the one
    ``make_set`` solved for to find the strict region nonempty, kept for
    ``set_member_witness``).  Closed-form route:
    ``support_lp`` (the ``lp.SupportLP`` over the carrier rows that answers
    every support value: made on first use, it keeps the last optimal
    tableau, so a later dual re-solves from it by dual simplex) and
    ``integer_rows`` (the carrier rows scaled to integers, one flat row
    ``(*normal, offset)`` each, read by ``_signs``).  Face route: ``vrep``
    and ``faces``.  Nothing is kept per dual, nor per supporting row.
    """

    __slots__ = (
        "member",
        "vrep",
        "faces",
        "support_lp",
        "integer_rows",
        "__weakref__",
    )

    def __init__(self) -> None:
        self.member: Vec | None = None
        self.vrep: VRep | None = None
        self.faces: tuple | None = None
        self.support_lp: SupportLP | None = None
        self.integer_rows: tuple[list[int], ...] | None = None


@dataclass(frozen=True, slots=True)
class PartiallyOpenPolyhedron:
    """A carrier with some rows made strict, plus its derived data.

    Built, or copied by ``dataclasses.replace``, it raises
    ``InvalidSetError`` unless ``validate`` finds it nonempty with the
    carrier as its closure (``InputError`` for a strict index past the
    rows), under ``python -O`` too.  ``_record`` holds what has been
    computed about it: a member point, the carrier's V-rep, the faces, the
    support LP and the carrier rows scaled to integers.  It is no init
    argument, so a copy starts afresh.  It takes no part in
    ``==``, ``hash`` or ``repr``, and is freed with the set.  The two routes
    to the coupling value stay independent by reading disjoint fields: the
    face route (``enumerate_faces`` and its callers) reads only ``vrep`` and
    ``faces``; the closed-form route (``support_level``, ``support_value``,
    ``supporting_rows``, ``supporting_row_witnesses``, ``row_signs`` and
    their callers) reads only ``support_lp`` and ``integer_rows``.
    """

    carrier: ClosedPolyhedron
    strict_rows: frozenset[int]
    _record: SetRecord = field(
        default_factory=SetRecord, init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        v = validate(self)
        if not (v.nonempty and v.closure_is_carrier):
            raise InvalidSetError("a set must be nonempty, with its canonical carrier as its closure")

    @property
    def dim(self) -> int:
        return self.carrier.dim


class VRep(NamedTuple):
    vertices: tuple[Vec, ...]
    rays: tuple[Vec, ...]
    lineality: tuple[Vec, ...]


class GeneratedCone(NamedTuple):
    dim: int
    generators: tuple[Vec, ...]


class Validation(NamedTuple):
    nonempty: bool
    closure_is_carrier: bool


def space(n: int) -> ClosedPolyhedron:
    if n < 1:
        raise InputError("ambient dimension must be at least 1")
    return ClosedPolyhedron(n, ())


def whole_set(n: int) -> PartiallyOpenPolyhedron:
    return _valid_set(space(n))


def _valid_set(carrier: ClosedPolyhedron, strict_rows=frozenset()) -> PartiallyOpenPolyhedron:
    """A set its caller has proven valid, built without ``__init__``, whose
    ``validate`` would repeat the proof."""
    c = object.__new__(PartiallyOpenPolyhedron)
    object.__setattr__(c, "carrier", carrier)
    object.__setattr__(c, "strict_rows", strict_rows)
    object.__setattr__(c, "_record", SetRecord())
    return c


def closed_as_set(p: ClosedPolyhedron) -> PartiallyOpenPolyhedron:
    """Wrap a closed polyhedron as a partially open one with no strict rows.

    Validated when built: a non-canonical or empty ``p`` raises
    ``InvalidSetError``.  ``closed_subset_of`` takes ``p`` unwrapped."""
    return PartiallyOpenPolyhedron(p, frozenset())


def _canonical_as_set(p: ClosedPolyhedron) -> PartiallyOpenPolyhedron:
    """``closed_as_set`` for ``canonicalize`` or ``portable_hull`` output,
    which is nonempty and canonical: exactly what ``validate`` would find,
    so it is not run."""
    return _valid_set(p)


def system_of(c: PartiallyOpenPolyhedron) -> tuple[StrictRow, ...]:
    return tuple(
        (normal, offset, i in c.strict_rows)
        for i, (normal, offset) in enumerate(c.carrier.rows)
    )


# A screened row: its primitive integer normal and its offset, scaled alike.
IntRow = tuple[tuple[int, ...], Fraction]


def _merge_parallel(rows: list[IntRow]) -> list[IntRow]:
    """Keep the tightest (least) offset per integer normal; rows sorted."""
    best: dict[tuple[int, ...], Fraction] = {}
    for normal, offset in rows:
        cur = best.get(normal)
        if cur is None or offset < cur:
            best[normal] = offset
    return sorted(best.items())


def _screen_rows(
    dim: int, rows: Sequence[Sequence], marked: bool
) -> tuple[list[IntRow], set[IntRow]] | None:
    """Read each row once into its primitive integer normal and its offset
    scaled alike (``linalg.primitive_row``), and resolve zero-normal rows:
    the closed rows, and the set of those marked strict.  Rows are
    ``(normal, offset, strict)`` when ``marked``, else weak ``(normal,
    offset)``.  ``None`` when a zero-normal row is unsatisfiable (the system
    is empty)."""
    width = 3 if marked else 2
    shape = "(normal, offset, strict)" if marked else "(normal, offset)"
    closed: list[IntRow] = []
    strict_rows: set[IntRow] = set()
    for k, raw in enumerate(rows):
        try:
            if len(raw) != width:
                raise InputError(f"row {k} must be {shape}; its length is {len(raw)}")
            normal = vec(_entries(raw[0]), dim)
        except TypeError:
            # A row, or its normal, that is not a sequence.
            raise InputError(f"row {k} must be {shape}, its normal a sequence of rationals") from None
        normal, offset = row = primitive_row(normal, rat(raw[1]))
        strict = marked and raw[2]
        if not any(normal):
            if offset < 0 or (strict and offset == 0):
                return None
            continue
        closed.append(row)
        if strict:
            strict_rows.add(row)
    return closed, strict_rows


def _irredundant(rows: list[Row], tops: SupportLP) -> tuple[Row, ...]:
    """One sequential pass of exact redundancy removal over the closed rows.

    Each row is tested against all other currently surviving rows; removal
    preserves the set at every step and the final system is irredundant.
    The test reads only the maximum of the row's normal over the others.
    ``tops`` is the rows' ``SupportLP``, whose zero objective found them
    nonempty, so every test asks it without the row and without the rows
    already dropped, a warm re-solve from that one kept tableau.  Every
    subset of the rows is feasible, so a None there is +inf.  A row with no
    others is kept: its normal is not zero, so it is unbounded over the
    zero-row system.  The order decides which rows stay when the carrier
    is lower-dimensional: of two rows that each make the other redundant,
    the first tested goes.
    """
    dropped: set[int] = set()
    for i, (normal, offset) in enumerate(rows):
        top = tops.maximum(normal, without=dropped | {i})
        if top is not None and top <= offset:
            dropped.add(i)
    return tuple(row for i, row in enumerate(rows) if i not in dropped)


def _nonempty_support(rows: Sequence[Row], dim: int) -> SupportLP | None:
    """A ``SupportLP`` over the rows, or None when they hold no point: the
    zero objective's maximum is None exactly then (Farkas), and its tableau
    serves any later maxima warm."""
    tops = SupportLP(rows, dim)
    return None if tops.maximum(zero_vec(dim)) is None else tops


def _canonical_rows(
    dim: int, rows: Sequence[Sequence], marked: bool
) -> tuple[tuple[IntRow, ...], set[IntRow], SupportLP] | None:
    """Canonical carrier rows on integer normals, the set of screened rows
    marked strict, and the ``SupportLP`` over the merged rows, dropped ones
    included, whose zero objective found them nonempty and whose tableau
    every redundancy test re-solved from; ``None`` when empty."""
    screened = _screen_rows(dim, rows, marked)
    if screened is None:
        return None
    closed, strict_rows = screened
    merged = _merge_parallel(closed)
    tops = _nonempty_support(merged, dim)
    if tops is None:
        return None
    return _irredundant(merged, tops), strict_rows, tops


def _fraction_rows(rows: Sequence[IntRow]) -> tuple[Row, ...]:
    """Carrier rows as ``ClosedPolyhedron`` keeps them: ``Fraction`` normals."""
    return tuple((tuple(map(Fraction, normal)), offset) for normal, offset in rows)


def canonicalize(dim: int, rows: Sequence[tuple[Sequence, object]]) -> ClosedPolyhedron | EmptySet:
    """Irredundant canonical form of a weak-row system, or ``EmptySet``."""
    got = _canonical_rows(dim, rows, False)
    if got is None:
        return EmptySet(dim)
    return ClosedPolyhedron(dim, _fraction_rows(got[0]))


def make_set(
    dim: int, rows: Sequence[tuple[Sequence, object, bool]]
) -> PartiallyOpenPolyhedron | EmptySet:
    """Build a partially open polyhedron from raw (normal, offset, strict) rows.

    The carrier is canonicalized from the rows read as weak, so strictness
    never decides which rows survive.  A carrier row is strict when some
    strict input row, scaled to its primitive integer normal, equals it.
    Every other strict row was merged into a tighter parallel row or found
    redundant: if its hyperplane still touches the carrier, the set cannot
    be written as carrier plus strict markings and ``InvalidSetError`` is
    raised; otherwise the row removes nothing and is dropped.  The
    hyperplane touches exactly when the row's normal reaches its offset on
    the carrier, a plain maximum of the ``SupportLP`` that canonicalization
    kept: its rows hold the same points as the carrier.  If the strict
    region is empty the value is ``EmptySet``.
    """
    got = _canonical_rows(dim, rows, True)
    if got is None:
        return EmptySet(dim)
    kept, strict_rows, tops = got
    strict: frozenset[int] = frozenset()
    # Skipped with no strict row: each test hashes a ``Fraction`` offset.
    if strict_rows:
        for normal, offset in sorted(strict_rows.difference(kept)):
            top = tops.maximum(normal)
            if top is None or top >= offset:
                raise InvalidSetError(
                    "strict row was redundant for the carrier but its hyperplane "
                    "touches the set; not representable as carrier + strict rows"
                )
        strict = frozenset(i for i, r in enumerate(kept) if r in strict_rows)
    # A feasible, irredundant carrier, and below a nonempty strict region:
    # what ``validate`` would find again.
    cand = _valid_set(ClosedPolyhedron(dim, _fraction_rows(kept)), strict)
    if strict:
        member = strict_system_feasible(system_of(cand))
        if member is None:
            return EmptySet(dim)
        cand._record.member = member
    return cand


def validate(c: PartiallyOpenPolyhedron | EmptySet) -> Validation:
    """Is the set nonempty, and is its closure the carrier?  The check of
    every set built field by field."""
    if isinstance(c, EmptySet):
        return Validation(False, False)
    if any(i < 0 or i >= len(c.carrier.rows) for i in c.strict_rows):
        raise InputError("strict row index out of range")
    rows = system_of(c)
    if not rows:
        return Validation(True, True)
    nonempty = strict_system_feasible(rows) is not None
    canonical = canonicalize(c.dim, c.carrier.rows) == c.carrier
    return Validation(nonempty, nonempty and canonical)


def closed_contains(p: ClosedPolyhedron, x: Sequence) -> bool:
    xv = vec(x, p.dim)
    return all(dot(normal, xv) <= offset for normal, offset in p.rows)


def row_signs(c: PartiallyOpenPolyhedron, x: Vec) -> tuple[int, ...]:
    """Sign of ``normal . x - offset`` for each carrier row, as -1, 0 or 1:
    the point cleared of its denominators by ``scaled``, then placed by
    ``_signs``.  The caller checks the point's dimension."""
    return _signs(c, *scaled(x))


def _signs(c: PartiallyOpenPolyhedron, ints: Sequence[int], den: int) -> tuple[int, ...]:
    """``row_signs`` of the point ``ints / den``, ``den`` positive.

    Each carrier row ``(*normal, offset)`` is scaled to integers once per
    set, so one integer dot product per row, ``normal . ints - offset *
    den``, gives the sign.
    """
    record = c._record
    rows = record.integer_rows
    if rows is None:
        rows = record.integer_rows = tuple(
            scaled((*normal, offset))[0] for normal, offset in c.carrier.rows
        )
    xs = [*ints, -den]
    signs = []
    for row in rows:
        v = sum(map(mul, row, xs))
        signs.append((v > 0) - (v < 0))
    return tuple(signs)


def signs_inside(c: PartiallyOpenPolyhedron, signs: Sequence[int]) -> bool:
    """Do these ``row_signs`` put the point in the set?"""
    strict = c.strict_rows
    return all(s < 0 if i in strict else s <= 0 for i, s in enumerate(signs))


def contains(c: PartiallyOpenPolyhedron | EmptySet, x: Sequence) -> bool:
    if isinstance(c, EmptySet):
        return False
    return signs_inside(c, row_signs(c, vec(x, c.dim)))


def closed_subset_of(
    p: ClosedPolyhedron | EmptySet, c: PartiallyOpenPolyhedron | ClosedPolyhedron | EmptySet
) -> bool:
    """Exact containment of a closed polyhedron in a partially open one, or
    in a closed one: all rows weak, canonical or not.

    Per row the criterion is a support-value comparison: weak rows need
    ``sup <= offset``, strict rows need ``sup < offset`` (a nonempty closed
    polyhedron attains its finite support values, so the strict comparison is
    exactly containment in the open halfspace).  A weak row that ``p``
    states verbatim among its own rows holds on all of ``p`` and needs no
    LP; a strict one still does.  When no row needs one, ``p`` is a subset
    even if empty, so no LP runs: comparing a closed set's portable hull,
    which states every carrier row, with the set or the carrier solves none.
    Each other sup is read as a value alone, from one ``lp.SupportLP`` over
    ``p``'s rows (the n-row dual), whose zero objective first finds ``p``
    nonempty; each asked row then re-solves from the last optimal tableau.
    Sets of different dimensions are refused, empty ones included.
    """
    if p.dim != c.dim:
        raise InputError("dimension mismatch between the two sets")
    if isinstance(p, EmptySet):
        return True
    if isinstance(c, EmptySet):
        return _nonempty_support(p.rows, p.dim) is None
    rows, strict = (c.rows, ()) if isinstance(c, ClosedPolyhedron) else (c.carrier.rows, c.strict_rows)
    stated = set(p.rows)
    asked = [i for i, row in enumerate(rows) if i in strict or row not in stated]
    tops = _nonempty_support(p.rows, p.dim) if asked else None
    if tops is None:
        return True
    for i in asked:
        normal, offset = rows[i]
        top = tops.maximum(normal)
        if top is None:
            return False
        if i in strict:
            if top >= offset:
                return False
        elif top > offset:
            return False
    return True


def closed_equal(p: ClosedPolyhedron, q: ClosedPolyhedron) -> bool:
    """Do two closed polyhedra hold the same points?  Containment both ways,
    ``p`` in ``q`` first."""
    return closed_subset_of(p, q) and closed_subset_of(q, p)


def lineality_space(p: ClosedPolyhedron) -> tuple[Vec, ...]:
    """Basis of the lineality space {d : normal . d = 0 for every row}."""
    if _nonempty_support(p.rows, p.dim) is None:
        raise InputError("lineality space of the empty set is undefined")
    normals = [normal for normal, _ in p.rows]
    return tuple(nullspace_basis(normals, p.dim))


# -- generator form ---------------------------------------------------------


def _check_walk(rows: int, size: int) -> None:
    subsets = comb(rows, size)
    if subsets > CONVERSION_SUBSET_CAP:
        raise ScaleLimitError(
            f"generator conversion would walk {subsets} row subsets, "
            f"above the cap of {CONVERSION_SUBSET_CAP}"
        )


def cone_generators(m_rows: Sequence[Vec], k: int) -> tuple[list[Vec], list[Vec]]:
    """Lineality basis and extreme rays of the cone {y : M y <= 0}."""
    lin, w = spaces(m_rows, k)
    return lin, _rays([tuple(dot(row, wj) for wj in w) for row in m_rows], w)


def _rays(reduced: Sequence[Vec], w: list[Vec]) -> list[Vec]:
    """Extreme rays of the cone {y : M y <= 0}, sorted, given a basis ``w``
    of M's row space and M's rows projected onto it (``row . wj`` per basis
    vector).  The projected cone is pointed, so its rays are walked there
    and mapped back by ``_combine``; without lineality ``w`` is the unit
    basis, and the projected rows are M's own."""
    k = len(w)
    if k == 0:
        return []
    rays: set[Vec] = set()
    _check_walk(len(reduced), k - 1)
    for mat, chosen in _independent_rows(integer_rows(reduced), k, k - 1):
        # The chosen rows leave one column free, and their nullspace is the
        # line of d with d[free] = 1: any other row's product with d has the
        # sign of its entry in that column.
        pivots = {j for _, j in chosen}
        free = next(j for j in range(k) if j not in pivots)
        signs = {(v > 0) - (v < 0) for v in _entries_after(mat, chosen, free)}
        if 1 in signs and -1 in signs:
            continue
        d = [Fraction(0)] * k
        d[free] = Fraction(1)
        for row, (_, j) in zip(_chosen_reduced(mat, chosen), chosen):
            d[j] = Fraction(-row[free], row[j])
        ray = primitive(_combine(w, d))
        if 1 not in signs:
            rays.add(ray)
        if -1 not in signs:
            rays.add(vneg(ray))
    return sorted(rays)


def _independent_rows(mat: list[list[int]], width: int, size: int):
    """Each set of ``size`` rows of ``mat`` that are linearly independent on
    their first ``width`` entries, depth-first in increasing row order, as
    ``(rows, chosen)``: ``chosen`` lists ``(row, pivot column)`` pairs, and
    ``rows`` is ``mat`` reduced on each chosen row but the last.

    A row joins by one ``eliminate`` step on its first nonzero entry among
    the first ``width``.  The step clears that column in every other row,
    so a row met later is already reduced against the chosen ones; if it has
    no such entry it depends on them, and every superset that adds it is
    skipped.  The last row of a set is not eliminated from the whole
    matrix: the callers read one entry of each other row
    (``_entries_after``) and the chosen rows (``_chosen_reduced``).
    """

    def extend(mat: list[list[int]], chosen: list[tuple[int, int]], start: int):
        for i in range(start, len(mat) - size + len(chosen) + 1):
            row = mat[i]
            c = next((j for j in range(width) if row[j]), None)
            if c is None:
                continue
            if len(chosen) + 1 == size:
                yield mat, chosen + [(i, c)]
            else:
                yield from extend(eliminate(mat, i, c), chosen + [(i, c)], i + 1)

    if size == 0:
        return iter([(mat, [])])
    return extend(mat, [], 0)


def _entries_after(mat: list[list[int]], chosen: list[tuple[int, int]], col: int):
    """The entry in column ``col`` of each row outside ``chosen``, once the
    last chosen row is eliminated too, up to a positive factor per row: the
    sign ``eliminate`` would leave there, without building the rows."""
    if not chosen:
        return (row[col] for row in mat)
    i, c = chosen[-1]
    top = mat[i]
    p = top[c]
    sign = 1 if p > 0 else -1
    picked = {r for r, _ in chosen}
    return (
        sign * (p * row[col] - row[c] * top[col])
        for r, row in enumerate(mat)
        if r not in picked
    )


def _chosen_reduced(mat: list[list[int]], chosen: list[tuple[int, int]]) -> list[list[int]]:
    """The chosen rows in reduced echelon form, in ``chosen`` order."""
    rows = [mat[i] for i, _ in chosen]
    return eliminate(rows, len(rows) - 1, chosen[-1][1]) if rows else rows


def _combine(basis: Sequence[Vec], coeffs: Vec) -> Vec:
    """``sum(c * b)`` over the basis, one ``dot`` per coordinate."""
    return tuple(dot(coeffs, column) for column in zip(*basis))


def _pointed_vertices(normals: Sequence[Vec], offsets: Sequence[Fraction], k: int) -> list[Vec]:
    verts: set[Vec] = set()
    _check_walk(len(normals), k)
    rows = integer_rows([(*normal, offset) for normal, offset in zip(normals, offsets)])
    for mat, chosen in _independent_rows(rows, k, k):
        # Every other row ends as (0, ..., 0, t (b - a . x)) with t > 0.
        if all(v >= 0 for v in _entries_after(mat, chosen, k)):
            x = [Fraction(0)] * k
            for row, (_, j) in zip(_chosen_reduced(mat, chosen), chosen):
                x[j] = Fraction(row[-1], row[j])
            verts.add(tuple(x))
    return sorted(verts)


def _generators(p: ClosedPolyhedron) -> VRep:
    normals = [normal for normal, _ in p.rows]
    offsets = [offset for _, offset in p.rows]
    lin, w = spaces(normals, p.dim)
    if not w:
        return VRep((zero_vec(p.dim),), (), tuple(lin))
    # Vertices first, so an over-budget conversion names the vertex walk.
    reduced = [tuple(dot(nr, wj) for wj in w) for nr in normals]
    verts = sorted(_combine(w, v) for v in _pointed_vertices(reduced, offsets, len(w)))
    return VRep(tuple(verts), tuple(_rays(reduced, w)), tuple(sorted(lin)))


def h_to_v(p: ClosedPolyhedron | EmptySet) -> VRep:
    """Vertices, extreme rays, and lineality of a closed polyhedron."""
    if isinstance(p, EmptySet) or _nonempty_support(p.rows, p.dim) is None:
        return VRep((), (), ())
    return _generators(p)


def v_to_h(v: VRep, dim: int | None = None) -> ClosedPolyhedron | EmptySet:
    """Canonical halfspace form of a generator description."""
    if not v.vertices:
        return EmptySet(dim if dim is not None else 1)
    n = len(v.vertices[0])
    if any(len(g) != n for g in (*v.vertices, *v.rays, *v.lineality)):
        raise InputError("a generator's dimension differs from the first vertex's")
    # Valid inequalities (a, beta) with a . x <= beta on the whole set form a
    # cone in dimension n+1; its generators are the facets and implicit
    # equalities of the set.
    m_rows = [(*vert, Fraction(-1)) for vert in v.vertices]
    m_rows += [(*ray, Fraction(0)) for ray in v.rays]
    for line in v.lineality:
        m_rows += [(*line, Fraction(0)), (*vneg(line), Fraction(0))]
    lin, rays = cone_generators(m_rows, n + 1)
    # ``canonicalize`` merges and sorts the rows, so their order is free.
    out_rows = [(g[:n], g[n]) for g in (*rays, *lin, *map(vneg, lin)) if not is_zero_vec(g[:n])]
    return canonicalize(n, out_rows)


def carrier_vrep(c: PartiallyOpenPolyhedron) -> VRep:
    """Generators of the set's carrier, converted once per set."""
    record = c._record
    if record.vrep is None:
        # A set is nonempty: no emptiness LP.
        record.vrep = _generators(c.carrier)
    return record.vrep


def is_bounded(p: ClosedPolyhedron) -> bool:
    g = h_to_v(p)
    return not g.rays and not g.lineality


# -- finitely generated cones ----------------------------------------------


def cone(dim: int, generators: Iterable[Sequence]) -> GeneratedCone:
    gens = []
    for g in generators:
        gv = vec(g, dim)
        if not is_zero_vec(gv):
            gens.append(gv)
    return GeneratedCone(dim, tuple(gens))


def cone_contains(k: GeneratedCone, x: Sequence) -> bool:
    """Exact membership of a vector in a finitely generated cone."""
    return _cone_holds(k, [vec(x, k.dim)])


def _cone_holds(k: GeneratedCone, vectors: Sequence[Vec]) -> bool:
    """Does the cone hold every one of the vectors?  Farkas: x is in the
    cone iff x . z is bounded on the polar cone {z : g . z <= 0}, asked of
    one ``SupportLP`` over the polar rows for all the vectors."""
    polar = SupportLP(tuple((g, Fraction(0)) for g in k.generators), k.dim)
    return all(is_zero_vec(x) or polar.maximum(x) is not None for x in vectors)


def cones_equal(a: GeneratedCone, b: GeneratedCone) -> bool:
    if a.dim != b.dim:
        raise InputError("cone dimension mismatch")
    return _cone_holds(b, a.generators) and _cone_holds(a, b.generators)
