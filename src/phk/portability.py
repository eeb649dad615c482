"""Supporting-half-space hulls, portability verdicts, and separation.

A partially open polyhedron is *portable* when the intersection of its
supporting half-spaces adds nothing: that intersection always contains the
closure of the set, and the gap between the two is what the reports and
certificates below make visible.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .errors import InputError
from .faces import enumerate_faces
from .linalg import Vec, dot, scaled, vec
from .lp import SupportLP, strict_system_feasible
from .normal_cones import (
    in_normal_cone,
    normal_cone_at,
    support_level,
    support_value,
    supporting_rows,
    _active_normals,
    _hyperplanes_meeting,
    _on_row,
)
from .polyhedra import (
    ClosedPolyhedron,
    EmptySet,
    PartiallyOpenPolyhedron,
    _canonical_as_set,
    _signs,
    carrier_vrep,
    closed_equal,
    closed_subset_of,
    contains,
    row_signs,
    signs_inside,
    space,
    system_of,
)
from .sampling import (
    SampleSpec,
    _cloud_from,
    _duals_at,
    _filtered_points_in,
    _point,
    boundary_points,
    dual_vectors,
)


class FinitePointSet(NamedTuple):
    dim: int
    points: tuple[Vec, ...]


def point_set(dim: int, points) -> FinitePointSet:
    if dim < 1:
        raise InputError(f"dimension must be positive, got {dim}")
    return FinitePointSet(dim, tuple(sorted({vec(p, dim) for p in points})))


class SeparationCertificate(NamedTuple):
    """A supporting half-space violated by the queried point."""

    normal: Vec
    support_point: Vec
    margin: Fraction


@dataclass(frozen=True, slots=True)
class PortabilityReport:
    maximal_on_samples: bool
    coupling_identity_on_samples: bool
    hull_adds_nothing: bool
    hull_equals_carrier: bool
    hull: ClosedPolyhedron
    related_pairs_checked: int
    identity_pairs_checked: int
    failure_pair: tuple[Vec, Vec] | None

    def verdicts(self) -> set[bool]:
        """The distinct verdicts of the four portability conditions: one
        when they agree, as the paper's equivalence says they must."""
        return {
            self.maximal_on_samples,
            self.coupling_identity_on_samples,
            self.hull_adds_nothing,
            self.hull_equals_carrier,
        }


def portable_hull(c: PartiallyOpenPolyhedron | EmptySet) -> ClosedPolyhedron:
    """Intersection of the supporting half-spaces, in canonical form.

    A valid set's carrier is canonical, and any subset of its rows is too:
    still sorted, primitive and free of parallel pairs, and still
    irredundant, since a point that violates row i alone keeps doing so
    when other rows are dropped.  So the kept rows, in carrier order, are
    already what ``canonicalize`` would return.  The other hulls below are
    row subsets of the carrier too.
    """
    if isinstance(c, EmptySet):
        return space(c.dim)
    return ClosedPolyhedron(c.dim, tuple(c.carrier.rows[i] for i in supporting_rows(c)))


def portable_hull_by_faces(c: PartiallyOpenPolyhedron | EmptySet) -> ClosedPolyhedron:
    """Definitional route: keep rows active on some closed face meeting the
    set; canonical as kept, by the argument in ``portable_hull``."""
    if isinstance(c, EmptySet):
        return space(c.dim)
    keep: set[int] = set()
    for face in enumerate_faces(c):
        if face.meets_set:
            keep |= face.active
    return ClosedPolyhedron(c.dim, tuple(c.carrier.rows[i] for i in sorted(keep)))


def partial_supporting_rows(
    c: PartiallyOpenPolyhedron,
    s: PartiallyOpenPolyhedron | FinitePointSet | EmptySet,
) -> tuple[int, ...]:
    """Carrier rows whose hyperplane meets both the set and the probe set."""
    return _partial_rows(c, s)[0]


def _partial_rows(c: PartiallyOpenPolyhedron, s) -> tuple[tuple[int, ...], list | None]:
    """``partial_supporting_rows``, with a point-set probe's ``row_signs`` (else None)."""
    if s.dim != c.dim:
        raise InputError("probe set dimension mismatch")
    if isinstance(s, EmptySet):
        return (), None
    if isinstance(s, FinitePointSet):
        signs = [row_signs(c, p) for p in s.points]
        return _rows_met(c, signs), signs
    return tuple(i for i, _ in _hyperplanes_meeting(c, system_of(c) + system_of(s))), None


def _rows_met(c: PartiallyOpenPolyhedron, signs) -> tuple[int, ...]:
    """Carrier rows whose hyperplane holds a point of the set, among the
    points with these ``row_signs``: the rows with a 0 in some member's
    vector."""
    members = [sg for sg in signs if signs_inside(c, sg)]
    return tuple(i for i in range(len(c.carrier.rows)) if any(sg[i] == 0 for sg in members))


def partial_portable_hull(
    c: PartiallyOpenPolyhedron,
    s: PartiallyOpenPolyhedron | FinitePointSet | EmptySet,
) -> ClosedPolyhedron:
    """Intersection of the half-spaces kept by ``partial_supporting_rows``;
    canonical as kept, by the argument in ``portable_hull``."""
    kept = partial_supporting_rows(c, s)
    return ClosedPolyhedron(c.dim, tuple(c.carrier.rows[i] for i in kept))


def is_portable(c: PartiallyOpenPolyhedron | EmptySet) -> bool:
    """Does the supporting half-space intersection equal the set?"""
    if isinstance(c, EmptySet):
        return False
    return closed_subset_of(portable_hull(c), c)


def nonsupporting_witness(
    c: PartiallyOpenPolyhedron,
) -> tuple[int, Vec] | None:
    """A carrier row missing the set, with a carrier point on its hyperplane.

    Such a point lies in the hull but not in the set, so it certifies a
    portability failure.  The strict rows miss the set (``supporting_rows``):
    the first is taken, and ``None`` means every row supports.
    """
    if not c.strict_rows:
        return None
    i = min(c.strict_rows)
    closed = tuple((n, o, False) for n, o in c.carrier.rows)
    witness = strict_system_feasible(_on_row(closed, c.carrier.rows[i]))
    assert witness is not None, "carrier rows are irredundant, every face is nonempty"
    return i, witness


def separation_certificate(
    c: PartiallyOpenPolyhedron, x
) -> SeparationCertificate | None:
    """Separate x from the set by a supporting half-space, if one is violated.

    Requires x outside the set.  ``None`` means no supporting half-space
    separates, i.e. x already lies in the portable hull.  The first violated
    supporting row separates, and only its witness LP is solved.
    """
    p = vec(x, c.dim)
    if contains(c, p):
        raise InputError("separation requested for a point of the set")
    for i in supporting_rows(c):
        normal, offset = c.carrier.rows[i]
        if dot(normal, p) > offset:
            witness = strict_system_feasible(_on_row(system_of(c), (normal, offset)))
            return SeparationCertificate(normal, witness, dot(normal, p) - offset)
    return None


def verify_certificate(
    c: PartiallyOpenPolyhedron, x, cert: SeparationCertificate
) -> bool:
    """Exact re-check: support point in the set, normal in its cone, margin right."""
    p = vec(x, c.dim)
    w = cert.support_point
    if not contains(c, w):
        return False
    if not in_normal_cone(c, w, cert.normal):
        return False
    sigma = support_level(c, cert.normal)
    if not sigma.is_finite:
        return False
    return cert.margin == dot(cert.normal, p) - sigma.finite_value and cert.margin > 0


def portability_report(
    c: PartiallyOpenPolyhedron, spec: SampleSpec = SampleSpec()
) -> PortabilityReport:
    """Check the four equivalent portability conditions on one set.

    Two conditions are exact (the hull comparisons, both read off one
    ``SupportLP`` by ``_hull_verdicts``); the two about the normal-cone
    graph are checked on a deterministic sample cloud that always includes
    a targeted witness when the set is not portable.

    The set is sampled once, on integers: the graph pairs and the cloud
    grow from one ``_filtered_points_in`` list.  The pairs are checked in
    groups, one per point x with its record (integers over one denominator
    and ``row_signs``) and its integer duals x*: the nonsupporting witness,
    the graph pairs of each ``points_in`` point, then each cloud point with
    x* = 0.  Each distinct point is placed once, in the set; its signs on
    the supporting rows place it in the hull.  The witness is placed only
    when no sample has its integers and denominator.  Each distinct dual
    paired with a point of the hull is looked up once, by ``support_level``,
    for this call only.  The coupling is sigma(x*) on the hull and +inf off
    it; sigma + iota_C is sigma(x*) on the set and +inf off it.  The pair
    is related when the coupling is at most <x, x*>, and in the graph when
    x is in the set and sigma(x*) = <x, x*>; <x, x*> is an integer sum over
    x's denominator, compared with a finite sigma(x*) by cross-multiplying.
    Repeated pairs are counted each time.  Only the failure pair becomes
    ``Fraction``s.
    """
    hull = portable_hull(c)
    hull_adds_nothing, hull_equals_carrier = _hull_verdicts(hull, c)

    supported = supporting_rows(c)
    zero = (0,) * c.dim
    inside = _filtered_points_in(c, spec)
    groups = list(zip(inside, _duals_at(c, spec, [sg for _, _, sg in inside])))
    groups += [(p, [zero]) for p in inside]
    # ``_cloud_from`` keeps first occurrences, so its head is ``inside``.
    groups += [(p, [zero]) for p in _cloud_from(c, spec, inside)[len(inside) :]]
    witness = nonsupporting_witness(c)
    if witness is not None:
        # ``scaled`` gives the point in lowest terms, as a record holds it.
        ints, den = scaled(witness[1])
        key = (tuple(ints), den)
        p = next((p for p, _ in groups if p[:2] == key), None)
        groups.insert(0, (p or (*key, _signs(c, ints, den)), [zero]))

    levels = {}  # a dual -> its support level, see ``_level``
    identity_ok = True
    maximal_ok = True
    failure = None
    related = 0
    for (ints, den, sg), duals in groups:
        if not all(sg[i] <= 0 for i in supported):
            # Off the hull both sides are +inf: the identity holds and no
            # pair is related.
            continue
        in_set = signs_inside(c, sg)
        for dual in duals:
            level = _level(c, levels, dual)
            if level is None:
                # sigma(x*) = +inf is never at most <x, x*>, and both sides
                # of the identity are +inf.
                continue
            if not in_set:
                identity_ok = False
                failure = failure or (ints, den, dual)
            num, lden = level
            # sigma(x*) = num / lden against <x, x*> = (ints . x*) / den.
            lhs, rhs = num * den, lden * sum(map(mul, ints, dual))
            if lhs <= rhs:
                related += 1
                if not (in_set and lhs == rhs):
                    maximal_ok = False
                    failure = failure or (ints, den, dual)
    return PortabilityReport(
        maximal_on_samples=maximal_ok,
        coupling_identity_on_samples=identity_ok,
        hull_adds_nothing=hull_adds_nothing,
        hull_equals_carrier=hull_equals_carrier,
        hull=hull,
        related_pairs_checked=related,
        identity_pairs_checked=sum(len(duals) for _, duals in groups),
        failure_pair=failure and (_point(*failure[:2]), _point(failure[2])),
    )


def _hull_verdicts(hull: ClosedPolyhedron, c: PartiallyOpenPolyhedron) -> tuple[bool, bool]:
    """``closed_subset_of(hull, c)`` and ``closed_equal(hull, c.carrier)``
    for the set's portable hull, read off one ``SupportLP`` over its rows.

    The hull's rows are carrier rows, so the carrier lies in the hull, and
    both verdicts ask only the rows ``closed_subset_of(hull, c)`` asks: the
    strict rows, which never support, and the weak rows the hull lacks.
    The hull equals the carrier when each such maximum is at most its
    offset, and lies in the set when, in addition, a strict row's maximum
    is below its offset.  The hull holds the set, which is nonempty, so no
    zero-objective emptiness query runs first.
    """
    stated = set(hull.rows)
    rows = c.carrier.rows
    asked = [i for i, row in enumerate(rows) if i in c.strict_rows or row not in stated]
    tops = SupportLP(hull.rows, hull.dim) if asked else None
    adds_nothing = True
    for i in asked:
        normal, offset = rows[i]
        top = tops.maximum(normal)
        if top is None or top > offset:
            return False, False
        if top == offset and i in c.strict_rows:
            adds_nothing = False
    return adds_nothing, True


def _level(
    c: PartiallyOpenPolyhedron, levels: dict, dual: tuple[int, ...]
) -> tuple[int, int] | None:
    """sigma(x*) on the set, for the integer dual x*, as integers ``(num,
    den)``, or None for +inf; ``support_level`` is asked once per dual and
    ``levels`` map, which is keyed by the dual."""
    if dual not in levels:
        sigma = support_level(c, dual)
        if sigma.is_finite:
            (num,), den = scaled((sigma.finite_value,))
            levels[dual] = num, den
        else:
            levels[dual] = None
    return levels[dual]


def hull_extension_report(
    c: PartiallyOpenPolyhedron, spec: SampleSpec = SampleSpec()
) -> dict:
    """How the portable hull extends the set while preserving its graph.

    A sampled point's cone in the set is read off the sampler's signs, and
    one placement by the hull's own rows gives its cone and membership
    there.  Each distinct dual is looked up on the hull once, as in
    ``portability_report``.  The cones are compared by their generators:
    every row active at a point of the set supports, and the hull keeps
    those rows in carrier order, so the tuples differ only when the hull
    lost an active row.  That is never more lenient than ``cones_equal``,
    and solves no LP."""
    hull = portable_hull(c)
    hull_set = _canonical_as_set(hull)
    again = portable_hull(hull_set)
    idempotent = closed_equal(again, hull)
    portable = is_portable(hull_set)
    contains_set = closed_subset_of(c.carrier, hull_set)

    inside = _filtered_points_in(c, spec)
    duals = _duals_at(c, spec, [sg for _, _, sg in inside])
    levels: dict = {}
    cone_witness = graph_witness = None
    for (ints, den, sg), ds in zip(inside, duals):
        hull_sg = _signs(hull_set, ints, den)
        if cone_witness is None and _active_normals(c, sg) != _active_normals(hull_set, hull_sg):
            cone_witness = ints, den
        on_hull = signs_inside(hull_set, hull_sg)
        for dual in ds:
            level = _level(hull_set, levels, dual) if on_hull else None
            # In the graph: x in the hull and sigma(x*) = <x, x*>, cross-multiplied.
            if level is None or level[0] * den != level[1] * sum(map(mul, ints, dual)):
                graph_witness = graph_witness or (ints, den)
    preserved, extended = cone_witness is None, graph_witness is None
    witness = cone_witness or graph_witness
    return {
        "hull": hull,
        "idempotent": idempotent,
        "hullPortable": portable,
        "hullContainsClosure": contains_set,
        "conesPreservedOnSamples": preserved,
        "graphExtendedOnSamples": extended,
        "conesChecked": len(inside),
        "pairsChecked": sum(len(ds) for ds in duals),
        "witness": witness and _point(*witness),
        "ok": idempotent and portable and contains_set and preserved and extended,
    }


def partial_hull_report(
    c: PartiallyOpenPolyhedron,
    s: PartiallyOpenPolyhedron | FinitePointSet | EmptySet,
    spec: SampleSpec = SampleSpec(),
) -> dict:
    """Restriction-to-probe-set checks for the partial hull.

    The exact part: the partial hull is unchanged by taking its own hull
    (full or partial), and its trace on the probe set equals the set's
    trace iff the normal-cone graphs agree there, which is corroborated on
    samples and refuted constructively when the traces differ.  A
    polyhedron probe asks a trace LP only of the rows the partial hull
    drops: a kept row is weak and stated, so no hull point violates it.  The
    partial hull keeps every row active at a point of the set and the probe,
    so the cones there are compared as in ``hull_extension_report``.  One
    ``row_signs`` vector per point of a point-set probe gives the kept rows,
    the trace check, the sampled points and their cones.  A polyhedron
    probe places each sampled point once in the probe, and a point there
    once in the partial hull; its signs in the set are the sampler's.
    """
    kept, signs = _partial_rows(c, s)
    partial = ClosedPolyhedron(c.dim, tuple(c.carrier.rows[i] for i in kept))
    pset = _canonical_as_set(partial)

    again_partial = partial_portable_hull(pset, s)
    again_full = portable_hull(pset)
    collapse = closed_equal(again_partial, partial) and closed_equal(again_full, partial)

    # Trace comparison on the probe set: the partial hull contains the set,
    # so the traces differ exactly when some probe point lies in the hull
    # but outside the set.  The normal cones are compared on sample points.
    trace_witness: Vec | None = None
    samples: list[tuple[Vec, tuple[int, ...]]] = []  # each with its row_signs
    if signs is not None:
        for p, sg in zip(s.points, signs):
            if all(sg[i] <= 0 for i in kept) and not signs_inside(c, sg):
                trace_witness = p
                break
        samples = [(p, sg) for p, sg in zip(s.points, signs) if signs_inside(c, sg)]
    elif isinstance(s, PartiallyOpenPolyhedron):
        for i, (normal, offset) in enumerate(c.carrier.rows):
            if i in kept:
                continue
            # Weak rows are violated strictly, strict rows weakly.
            negated = (tuple(-q for q in normal), -offset, i not in c.strict_rows)
            system = system_of(s) + tuple((n, o, False) for n, o in partial.rows)
            trace_witness = strict_system_feasible(system + (negated,))
            if trace_witness is not None:
                break
        joint = system_of(c) + system_of(s)
        got = strict_system_feasible(joint) if joint else None
        samples = [(got, row_signs(c, got))] if got is not None else []
        for ints, den, sg in _filtered_points_in(c, spec):
            if signs_inside(s, _signs(s, ints, den)):
                samples.append((_point(ints, den), sg))
    trace_equal = trace_witness is None

    cones_agree = True
    cone_witness = None
    for p, sg in samples:
        if _active_normals(c, sg) != normal_cone_at(pset, p).generators:
            cones_agree = False
            cone_witness = cone_witness or p
    if not trace_equal:
        # A point of the hull's trace outside the set has a nonempty normal
        # cone for the hull and no graph at all for the set.
        cones_agree = False
        cone_witness = cone_witness or trace_witness

    return {
        "partialHull": partial,
        "collapse": collapse,
        "traceEqual": trace_equal,
        "traceWitness": trace_witness,
        "graphsAgreeOnTrace": cones_agree,
        "graphWitness": cone_witness,
        "restrictionBiconditional": trace_equal == cones_agree,
        "conesChecked": len(samples),
        "ok": collapse and (trace_equal == cones_agree),
    }


def line_free_report(
    c: PartiallyOpenPolyhedron, spec: SampleSpec = SampleSpec()
) -> dict:
    """Closed-set checks tying portability to the absence of lines.

    Input must be closed (no strict rows).  A line-free closed polyhedron
    is portable, the support function is finite exactly on the directions
    attained by some point, and boundedness attains every direction.
    """
    if c.strict_rows:
        raise InputError("these checks apply to closed sets only")
    g = carrier_vrep(c)
    line_free = not g.lineality
    portable = is_portable(c)
    bounded = line_free and not g.rays

    agree = True
    witness = None
    duals_checked = 0
    attained_all = True
    for xstar in dual_vectors(c, spec):
        duals_checked += 1
        ev = support_value(c, xstar)
        member = ev.attained_in_set
        if ev.value.is_finite != member:
            # A closed set attains every finite support value.
            agree = False
            witness = witness or xstar
        if not member:
            attained_all = False
    return {
        "lineFree": line_free,
        "portable": portable,
        "lineFreeImpliesPortable": portable or not line_free,
        "domainMatchesRange": agree,
        "dualsChecked": duals_checked,
        "bounded": bounded,
        "boundedAttainsAll": attained_all or not bounded,
        "witness": witness,
        "ok": (portable or not line_free)
        and agree
        and (attained_all or not bounded),
    }


def boundary_support_report(
    c: PartiallyOpenPolyhedron, spec: SampleSpec = SampleSpec()
) -> dict:
    """Probe: every sampled boundary point of the set is a support point."""
    sampled = 0
    all_support = True
    witness = None
    for x in boundary_points(c, spec):
        sampled += 1
        # Carrier normals are never zero, so any generator makes x a support point.
        if not normal_cone_at(c, x).generators:
            all_support = False
            witness = witness or x
    return {
        "sampled": sampled,
        "allSupport": all_support,
        "vacuous": not c.carrier.rows,
        "witness": witness,
        "ok": all_support,
    }
