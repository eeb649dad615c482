"""Exact linear programming over the rationals.

``lp_solve`` maximizes a rational linear objective over weak rows
``normal . x <= offset`` with free variables (``LPProblem``), or over equality
rows ``normal . w = offset`` with ``w >= 0`` (``EqualityLP``), and returns
a certificate that can be re-verified exactly (an optimum whose tableau
``SupportLP`` keeps carries its value alone):

* ``optimal``   carries the primal point, the value, and duals ``y`` with
                ``b . y = value`` and ``A^T y = c, y >= 0`` (weak rows) or
                ``A^T y >= c`` (equality rows);
* ``unbounded`` carries a ray ``d``, ``c . d > 0``, with ``A d <= 0`` or
                ``A d = 0, d >= 0``;
* ``infeasible`` carries Farkas multipliers ``y``, ``b . y < 0``, with
                ``A^T y = 0, y >= 0`` or ``A^T y >= 0``.

The pivot rule is Bland's anti-cycling rule (lowest eligible column index
enters; ties in the ratio test break toward the lowest basic variable index),
which makes every run deterministic.

Both forms run one two-phase body.  Weak rows split ``x = u - v`` with
``u, v >= 0`` and get a slack each; equality rows enter as they are.  A full
set of artificial variables provides the phase-1 basis and doubles as an
explicit basis inverse: the exact duals are its columns of the reduced-cost
row.  Equality rows may depend on one another; an artificial left basic at
zero in a row with no nonzero structural entry stays there for good.

``EqualityLP`` serves the barycentric programs and ``SupportLP``, which
answers maxima whose point nobody reads.  Over a *nonempty* system
``A x <= b`` in n variables and m rows, LP duality (Schrijver, *Theory of
Linear and Integer Programming*, 1986, section 7.4) gives
``sup c . x = min b . y`` subject to ``A^T y = c``, ``y >= 0``: the dual is
infeasible exactly when the primal is unbounded, and a feasible primal
leaves it bounded.  Both optima are the same rational, so the value
is exact; the tableau has n rows and m + n columns instead of m rows and
2n + 2m columns.  Over an empty system the dual has no optimum: a Farkas
vector ``y >= 0`` with ``A^T y = 0`` and ``b . y < 0`` makes it unbounded
once it is feasible.  So every maximum there reads None, and the zero
objective, whose dual holds ``y = 0``, reads None exactly when the system
is empty: that is the emptiness test.
Cone membership goes through the same dual (Farkas): x lies in the cone
of g_1, ..., g_k exactly when ``x . z`` is bounded above on the polar cone
``{z : g_i . z <= 0}``, a system that holds 0.

``SupportLP`` asks that dual for many objectives over one system, and
``max_value`` is its one-shot use.  The objectives differ only in the dual's
right-hand side, so an optimal basis stays dual feasible from one to the
next.  The first objective that ends optimal runs ``lp_solve``'s two-phase
body and keeps the final tableau.  Each later one recomputes the basic
values from the artificial columns, which hold the basis inverse, and
reads the value off the reduced-cost row when they are all >= 0; otherwise
it runs dual simplex pivots (Lemke 1954) under Bland's rule (Bland 1977),
which makes them finite: the row of lowest basic index among the negative
right-hand sides leaves, and the column of least ratio ``red_j / |a_ij|``
over ``a_ij < 0`` enters, ties to the lowest ``j``.  A leaving row with no
negative structural entry means the sup is +inf, and the kept tableau stays
as it was.  Normals that do not span the space leave an artificial basic in
each dependent row, whose artificial part is orthogonal to every normal: a
nonzero value there means +inf, before any pivot.

A maximum over the system without some rows fixes their dual variables at
0 and re-solves from the kept tableau in the same way, with their columns
barred.  A barred column never enters.  A row whose basic column is barred
and has a positive value breaks its bound just as a negative row does, and
the lowest basic index among all such rows leaves; a positive row's column
enters by the least ratio ``red_j / a_ij`` over ``a_ij > 0``, so every
eligible reduced cost stays >= 0, and the barred column leaves at its
bound 0.  No eligible entering column means the sup is +inf.  The pivots
end: a barred column leaves at most once and never re-enters, and once no
barred column leaves any more, Bland's rule holds as above.  Such a re-solve
leaves the kept tableau as it was, so every maximum without rows starts
from the same one: this is the textbook redundancy LP (Fukuda's FAQ in
polyhedral computation, "redundancy removal") re-solved warm.

``strict_system_feasible`` returns a point of a system of mixed strict
and weak rows, or ``None`` when it is empty; with every row weak it is the
point of a weak system.

The tableau is fraction-free.  Each row, and the reduced-cost row, is a list
of ``int`` over one positive ``int`` denominator (``linalg.scaled``), and a
pivot works on whole rows, dividing each new row by the gcd of its entries
and its denominator (integer pivoting in the manner of Bareiss and of
Avis's lrs).  The ratio test compares by cross-multiplication.  Pivot
choices depend only on the values, so they are the ones a ``Fraction``
tableau would make; results become ``Fraction`` only in the returned
``LPOutcome``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Collection, NamedTuple, Sequence

from .errors import InputError
from .linalg import Vec, dot, is_zero_vec, primitive, scaled, vec, zero_vec
from .scalars import rat

Row = tuple[Vec, Fraction]
StrictRow = tuple[Vec, Fraction, bool]


class LPProblem(NamedTuple):
    """Maximize ``objective . x`` subject to ``normal . x <= offset`` per row."""

    objective: Vec
    rows: tuple[Row, ...]

    @property
    def dim(self) -> int:
        return len(self.objective)


class EqualityLP(NamedTuple):
    """Maximize ``objective . w`` subject to ``normal . w = offset`` per row, ``w >= 0``."""

    objective: Vec
    rows: tuple[Row, ...]

    @property
    def dim(self) -> int:
        return len(self.objective)


def problem(objective: Sequence, rows: Sequence[tuple[Sequence, object]]) -> LPProblem:
    obj = vec(objective)
    if not obj:
        raise InputError("LP dimension must be at least 1")
    rs = tuple((vec(n, len(obj)), rat(o)) for n, o in rows)  # type: ignore[arg-type]
    return LPProblem(obj, rs)


class LPOutcome(NamedTuple):
    status: str  # "optimal" | "unbounded" | "infeasible"
    value: Fraction | None = None
    primal: Vec | None = None
    dual: Vec | None = None
    ray: Vec | None = None
    farkas: Vec | None = None


def _reduced(row: list[int], den: int) -> tuple[list[int], int]:
    """Divide an integer row and its positive denominator by their gcd."""
    # A loop, not one ``gcd(den, *row)``: that call copies the row into a
    # tuple each time, which left the report workload's peak RSS about
    # 0.3 MB (1.5%) higher, for no per-solve gain that could be measured.
    g = den
    for x in row:
        if x:
            g = gcd(g, x)
            if g == 1:
                return row, den
    return [x // g for x in row], den // g


def _pivot(tab: list[list[int]], dens: list[int], basis: list[int], i: int, j: int) -> None:
    """Pivot on ``(i, j)``; ``tab[-1]``/``dens[-1]`` is the reduced-cost row."""
    row = tab[i]
    p = row[j]
    if p < 0:
        row, p = [-x for x in row], -p
    tab[i], dens[i] = row, p = _reduced(row, p)
    for r, other in enumerate(tab):
        f = other[j]
        if f and r != i:
            tab[r], dens[r] = _reduced([a * p - f * b for a, b in zip(other, row)], dens[r] * p)
    basis[i] = j


def _reduced_costs(
    tab: list[list[int]], dens: list[int], basis: list[int], costs: list[int], scale: int
) -> tuple[list[int], int]:
    """``costs / scale - c_B B^-1 A`` over the constraint rows
    ``tab[:len(basis)]``, summed over one common denominator; the last entry
    is ``-c_B x_B``.  ``costs`` may stop short of the last columns, which
    then cost 0."""
    whole = costs + [0] * (len(tab[0]) - len(costs))
    weighted = [(whole[b], tab[i], dens[i]) for i, b in enumerate(basis) if whole[b]]
    common = lcm(*[d for _, _, d in weighted])
    red = [c * common for c in whole]
    for c, row, d in weighted:
        f = c * (common // d)
        red = [a - f * t for a, t in zip(red, row)]
    return _reduced(red, scale * common)


def _run_simplex(tab: list[list[int]], dens: list[int], basis: list[int], eligible_end: int) -> int | None:
    """Iterate Bland pivots to optimality.

    Columns ``0 .. eligible_end-1`` may enter.  Returns None on optimality, or
    the entering column index when the problem is unbounded in that column.
    """
    while True:
        red = tab[-1]
        enter = next((j for j in range(eligible_end) if red[j] < 0), None)
        if enter is None:
            return None
        # A row's denominator cancels in its ratio rhs / coef, so ratios are
        # compared by cross-multiplying the numerators.
        leave = -1
        for i in range(len(basis)):
            row = tab[i]
            coef = row[enter]
            if coef > 0:
                rhs = row[-1]
                if leave < 0 or rhs * best_coef < best_rhs * coef or (
                    rhs * best_coef == best_rhs * coef and basis[i] < basis[leave]
                ):
                    leave, best_rhs, best_coef = i, rhs, coef
        if leave < 0:
            return enter
        _pivot(tab, dens, basis, leave, enter)


def lp_solve(p: LPProblem | EqualityLP, keep: list | None = None) -> LPOutcome:
    """Solve ``p`` by the two-phase body.  When ``keep`` is a list and the
    outcome is optimal, the final tableau is appended to it as ``(rows,
    denominators, basis, row signs)``, for ``SupportLP`` to re-solve from,
    and the outcome carries the status and the value only: the value is
    read off the kept tableau, and no primal or dual is built."""
    n = p.dim
    if n < 1:
        raise InputError("LP dimension must be at least 1")
    m = len(p.rows)
    obj = p.objective
    free = isinstance(p, LPProblem)

    if m == 0:
        ray = obj if free else tuple(c if c > 0 else Fraction(0) for c in obj)
        if is_zero_vec(ray):
            return LPOutcome("optimal", value=Fraction(0), primal=zero_vec(n), dual=())
        return LPOutcome("unbounded", ray=primitive(ray))

    # Standard form: columns (u | v | s) for weak rows or as given for equality
    # rows, one artificial per row; each row is ints over one denominator.
    nstruct = 2 * n + m if free else n
    signs = [1 if off >= 0 else -1 for _, off in p.rows]
    tab: list[list[int]] = []
    dens: list[int] = []
    for i, (normal, offset) in enumerate(p.rows):
        if len(normal) != n:
            raise InputError(f"LP row {i} has {len(normal)} entries, the objective {n}")
        d = signs[i]
        ints, den = scaled((*normal, offset))
        *row, rhs = (d * a for a in ints)
        if free:
            row += [-a for a in row]
            row += [d * den if k == i else 0 for k in range(m)]
        row += [den if k == i else 0 for k in range(m)]
        row.append(rhs)
        tab.append(row)
        dens.append(den)
    basis = [nstruct + i for i in range(m)]

    # Phase 1: minimize the sum of artificials.  The reduced-cost row rides
    # along as the last row of the tableau.
    red, red_den = _reduced_costs(tab, dens, basis, [0] * nstruct + [1] * m, 1)
    tab.append(red)
    dens.append(red_den)
    hit = _run_simplex(tab, dens, basis, nstruct + m)
    assert hit is None, "phase-1 objective is bounded below by zero"
    red, red_den = tab[-1], dens[-1]
    if red[-1] < 0:
        # The artificial columns of the reduced costs are 1 - pi.
        farkas = tuple(-signs[j] * (red_den - red[nstruct + j]) for j in range(m))
        return LPOutcome("infeasible", farkas=primitive(farkas))

    # Expel artificials still basic at level zero through a nonzero structural
    # entry.  A dependent row has none; its artificial stays basic at zero.
    for i in range(m - 1, -1, -1):
        if basis[i] >= nstruct and any(tab[i][:nstruct]):
            _pivot(tab, dens, basis, i, next(c for c in range(nstruct) if tab[i][c]))

    # Phase 2: minimize -objective over the structural columns.
    whole, scale = scaled(obj)
    costs2 = [-c for c in whole]
    if free:
        costs2 += whole
    tab[-1], dens[-1] = _reduced_costs(tab, dens, basis, costs2, scale)
    hit = _run_simplex(tab, dens, basis, nstruct)
    if hit is not None:
        common = lcm(*dens[:-1])
        zray = [0] * (nstruct + m)
        zray[hit] = common
        for i, b in enumerate(basis):
            zray[b] = -tab[i][hit] * (common // dens[i])
        ray = tuple(zray[t] - zray[n + t] for t in range(n)) if free else tuple(zray[:n])
        return LPOutcome("unbounded", ray=primitive(ray))

    if keep is not None:
        keep.append((tab, dens, basis, signs))
        # Phase 2's costs are -objective, so the last reduced cost is the value.
        return LPOutcome("optimal", value=Fraction(tab[-1][-1], dens[-1]))
    zval = [Fraction(0)] * (nstruct + m)
    for i, b in enumerate(basis):
        zval[b] = Fraction(tab[i][-1], dens[i])
    x = tuple(zval[t] - zval[n + t] for t in range(n)) if free else tuple(zval[:n])
    # The artificial columns of the reduced costs are -pi.
    red, red_den = tab[-1], dens[-1]
    dual = tuple(Fraction(signs[j] * red[nstruct + j], red_den) for j in range(m))
    return LPOutcome("optimal", value=dot(obj, x), primal=x, dual=dual)


def verify_outcome(p: LPProblem, o: LPOutcome) -> bool:
    """Exact certificate re-verification; no tolerance anywhere."""
    if o.status == "unbounded":
        if o.ray is None or is_zero_vec(o.ray):
            return False
        if any(dot(normal, o.ray) > 0 for normal, _ in p.rows):
            return False
        return dot(p.objective, o.ray) > 0
    # An optimal dual and a Farkas certificate are both row weights y >= 0.
    if o.status == "optimal":
        if o.primal is None or o.value is None:
            return False
        if any(dot(normal, o.primal) > offset for normal, offset in p.rows):
            return False
        if dot(p.objective, o.primal) != o.value:
            return False
        weights, target = o.dual, p.objective
    elif o.status == "infeasible":
        weights, target = o.farkas, zero_vec(p.dim)
    else:
        return False
    if weights is None or len(weights) != len(p.rows):
        return False
    if any(l < 0 for l in weights):
        return False
    combo = [Fraction(0)] * p.dim
    paid = Fraction(0)
    for (normal, offset), l in zip(p.rows, weights):
        if l:
            combo = [c + l * a for c, a in zip(combo, normal)]
            paid += l * offset
    return tuple(combo) == target and (paid == o.value if o.status == "optimal" else paid < 0)


def strict_system_feasible(rows: Sequence[StrictRow]) -> Vec | None:
    """A point of a mixed strict/weak system, or None when it is empty.

    Auxiliary program: maximize a margin ``t`` with ``t <= 1``, requiring
    ``normal . x + t <= offset`` on strict rows and ``normal . x <= offset``
    on weak ones.  The system is feasible iff the optimum has ``t > 0``, and
    then the x-part of the optimizer satisfies every row (strict rows with
    margin at least ``t``).
    """
    if not rows:
        raise InputError("empty system: dimension is undetermined")
    n = len(rows[0][0])
    aux_rows: list[tuple[Vec, Fraction]] = []
    for normal, offset, strict in rows:
        if len(normal) != n:
            raise InputError("row dimension mismatch in strict system")
        aux_rows.append((tuple(normal) + (Fraction(1) if strict else Fraction(0),), offset))
    aux_rows.append((zero_vec(n) + (Fraction(1),), Fraction(1)))
    aux = LPProblem(zero_vec(n) + (Fraction(1),), tuple(aux_rows))
    out = lp_solve(aux)
    if out.status == "infeasible":
        return None
    assert out.status == "optimal", "auxiliary margin objective is capped at 1"
    assert out.value is not None and out.primal is not None
    return out.primal[:n] if out.value > 0 else None


class SupportLP:
    """Repeated maxima ``sup c . x`` over one fixed weak-row system.

    Each maximum is ``max_value``'s n-row dual, ``min b . y`` subject to
    ``A^T y = c``, ``y >= 0``, re-solved from the last optimal tableau as the
    module docstring describes.  Over an empty system every maximum is
    None, and the zero objective's is None exactly then.  The kept
    tableau's artificial columns hold ``B^-1`` of the sign-adjusted rows
    ``S A^T``, so an objective's basic values are ``B^-1 S c``, and the last
    entry of the reduced-cost row is ``-pi . S c``, where ``pi`` is the
    row's artificial part.  Only a re-solve that ends optimal and bars no
    column replaces the kept tableau; one without rows bars theirs, as the
    module docstring describes.
    """

    __slots__ = ("dim", "_costs", "_columns", "_kept")

    def __init__(self, rows: Sequence[Row], dim: int) -> None:
        if dim < 1:
            raise InputError("dimension must be at least 1")
        for i, (normal, _) in enumerate(rows):
            if len(normal) != dim:
                raise InputError(f"LP row {i} has {len(normal)} entries, the objective {dim}")
        self.dim = dim
        self._costs = tuple(-offset for _, offset in rows)
        self._columns = tuple(tuple(normal[t] for normal, _ in rows) for t in range(dim))
        self._kept: tuple | None = None

    def maximum(self, objective: Vec, without: Collection[int] = ()) -> Fraction | None:
        """sup of ``objective . x`` over the rows, or None when unbounded or
        when the rows hold no point.

        ``without`` names rows, by index, to leave out.  Their columns are
        barred: the re-solve starts from the kept tableau with them fixed at
        0, and the kept tableau stays as it was.  So a maximum without rows
        needs a kept tableau, and is refused before one exists.
        """
        if len(objective) != self.dim:
            raise InputError(f"objective has {len(objective)} entries, the rows {self.dim}")
        if without:
            if self._kept is None:
                raise InputError("a maximum without rows re-solves from a kept tableau; none is kept")
            return self._warm(objective, without)
        if not self._costs:
            return None if any(objective) else Fraction(0)
        if self._kept is None:
            keep: list = []
            out = lp_solve(EqualityLP(self._costs, tuple(zip(self._columns, objective))), keep)
            if out.status != "optimal":
                return None
            self._kept = keep[0]
            return -out.value
        return self._warm(objective)

    def _warm(self, objective: Vec, without: Collection[int] = ()) -> Fraction | None:
        kept_tab, kept_dens, basis, signs = self._kept
        nstruct = len(self._costs)
        ints, den = scaled(objective)
        rhs = [s * c for s, c in zip(signs, ints)]
        # A dependent row (artificial basic, no structural entry) is nonzero off the normals' span.
        for row, b in zip(kept_tab, basis):
            if b >= nstruct and sum(a * c for a, c in zip(row[nstruct:-1], rhs)):
                return None
        tab: list[list[int]] = []
        dens: list[int] = []
        for row, d in zip(kept_tab, kept_dens):
            last = sum(a * c for a, c in zip(row[nstruct:-1], rhs))
            # Reduced, so that rows no pivot touches do not grow query by query.
            if den > 1:
                row, d = _reduced([x * den for x in row[:-1]] + [last], d * den)
            else:
                row = row[:-1] + [last]
            tab.append(row)
            dens.append(d)
        basis = list(basis)
        eligible = [j for j in range(nstruct) if j not in without] if without else range(nstruct)
        red = tab[-1]
        while True:
            # A barred basic column above 0 breaks its bound as a negative one does.
            leave = min(
                (i for i in range(len(basis)) if tab[i][-1] < 0 or basis[i] in without and tab[i][-1] > 0),
                key=basis.__getitem__,
                default=None,
            )
            if leave is None:
                break
            row = tab[leave]
            # Negated, a barred row's positive entries are the negative ones the ratio test reads.
            if row[-1] > 0:
                row = [-a for a in row]
            enter = -1
            for j in eligible:
                a = row[j]
                if a < 0 and (enter < 0 or red[j] * best < red[enter] * -a):
                    enter, best = j, -a
            if enter < 0:
                return None
            _pivot(tab, dens, basis, leave, enter)
            red = tab[-1]
        if not without:
            self._kept = (tab, dens, basis, signs)
        return Fraction(-red[-1], dens[-1])


def max_value(objective: Vec, rows: Sequence[Row]) -> Fraction | None:
    """sup of ``objective . x`` over a weak-row system, or None when the
    system is unbounded in that direction or empty; rows in internal form.

    ``SupportLP``'s one-shot use, kept public and read by the tests'
    reference redundancy pass: it solves the dual ``min b . y`` subject to
    ``A^T y = objective``, ``y >= 0`` as an ``EqualityLP``, one equation per
    coordinate and one column per row.  Over feasible rows the dual is never
    unbounded, and it is infeasible exactly when the primal is unbounded.
    """
    return SupportLP(rows, len(objective)).maximum(objective)
