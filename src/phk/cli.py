"""Batch command line front end.

Every invocation reads JSON problem files, runs one operation, and emits a
single JSON document: ``{"verb", "inputs", "result", "witnesses",
"paperChecks"}``.  ``paperChecks`` lists the named identities that were
verified during the run; a falsified identity moves to
``witnesses.falsified`` and flips the exit code to 2.  Input problems exit
with 1.  Identical inputs and options produce byte-identical output.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import InputError
from .faces import FACE_DIM_CAP
from .fitzpatrick import (
    is_monotone,
    normal_cone_fitzpatrick,
    normal_cone_fitzpatrick_by_faces,
)
from .linalg import dot
from .normal_cones import (
    in_normal_cone,
    in_portable_hull,
    in_range,
    normal_cone_at,
    support_value,
    supporting_row_witnesses,
    supporting_rows,
)
from .polyhedra import (
    EmptySet,
    closed_as_set,
    closed_subset_of,
    cone_contains,
    contains,
    space,
)
from .portability import (
    boundary_support_report,
    hull_extension_report,
    is_portable,
    line_free_report,
    partial_hull_report,
    partial_supporting_rows,
    portability_report,
    portable_hull,
    portable_hull_by_faces,
    separation_certificate,
    verify_certificate,
)
from .representability import (
    GridSpec,
    rep_value,
    rep_sum_value,
    rep_sum_value_by_enumeration,
    representability_probe,
    sum_graph_membership,
)
from .sampling import SampleSpec
from .scalars import POS_INF, fin, rat
from .selftest import run_selftest
from .serialize import (
    dumps,
    fmt_closed,
    fmt_set,
    fmt_vector,
    jsonable,
    parse_graph,
    parse_points,
    parse_set,
    parse_vector,
)


class CheckSet:
    """Collects named identity checks and their verdicts."""

    def __init__(self) -> None:
        self.passed: list[str] = []
        self.failed: list[str] = []

    def add(self, name: str, ok: bool) -> None:
        (self.passed if ok else self.failed).append(name)

    def finish(self, doc: dict) -> int:
        doc["paperChecks"] = sorted(self.passed)
        if self.failed:
            doc.setdefault("witnesses", {})["falsified"] = sorted(self.failed)
            return 2
        return 0


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _load_set(path: str):
    return parse_set(_load(path))


def _load_probe(path: str):
    obj = _load(path)
    if isinstance(obj, dict) and "points" in obj:
        return parse_points(obj)
    return parse_set(obj)


def _nonempty(c, what: str):
    if isinstance(c, EmptySet):
        raise InputError(f"{what} must not be the empty set")
    return c


def _point_arg(raw: str, dim: int, what: str):
    try:
        values = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"{what} must be a JSON vector: {exc.msg}") from exc
    return parse_vector(values, dim)


def _spec(args) -> SampleSpec:
    return SampleSpec(seed=args.seed, count=args.samples)


def _finish(doc: dict, checks: CheckSet, args) -> int:
    """Record the checks in the document, write it out, return the exit code."""
    code = checks.finish(doc)
    text = dumps(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


def cmd_hull(args) -> int:
    c = _load_set(args.set)
    doc = {"verb": "hull", "inputs": {"set": fmt_set(c)}, "witnesses": {}}
    checks = CheckSet()
    hull = portable_hull(c)
    doc["result"] = fmt_closed(hull)
    if isinstance(c, EmptySet):
        checks.add("empty-set-hull-is-space", hull == space(c.dim))
        return _finish(doc, checks, args)
    doc["witnesses"] = {
        "supportingRows": list(supporting_rows(c)),
        "supportPoints": [
            {"row": i, "point": fmt_vector(w)} for i, w in supporting_row_witnesses(c)
        ],
    }
    checks.add(
        "hull-contains-closure", closed_subset_of(c.carrier, closed_as_set(hull))
    )
    hull_set = closed_as_set(hull)
    again = portable_hull(hull_set)
    checks.add(
        "hull-idempotent",
        closed_subset_of(again, hull_set)
        and closed_subset_of(hull, closed_as_set(again)),
    )
    if c.dim <= FACE_DIM_CAP:
        other = portable_hull_by_faces(c)
        checks.add(
            "hull-matches-face-route",
            closed_subset_of(other, hull_set)
            and closed_subset_of(hull, closed_as_set(other)),
        )
    return _finish(doc, checks, args)


def cmd_partial_hull(args) -> int:
    c = _nonempty(_load_set(args.set), "the base set")
    s = _load_probe(args.probe)
    doc = {
        "verb": "partial-hull",
        "inputs": {"probe": jsonable(s), "set": fmt_set(c)},
        "witnesses": {"keptRows": list(partial_supporting_rows(c, s))},
    }
    checks = CheckSet()
    hull = portable_hull(c)
    report = partial_hull_report(c, s, _spec(args))
    partial = report["partialHull"]
    doc["result"] = fmt_closed(partial)
    checks.add("contains-full-hull", closed_subset_of(hull, closed_as_set(partial)))
    checks.add("partial-hull-collapse", report["collapse"])
    checks.add("restriction-biconditional", report["restrictionBiconditional"])
    return _finish(doc, checks, args)


def cmd_portable(args) -> int:
    c = _load_set(args.set)
    doc = {"verb": "portable", "inputs": {"set": fmt_set(c)}, "witnesses": {}}
    checks = CheckSet()
    verdict = is_portable(c)
    doc["result"] = verdict
    if isinstance(c, EmptySet):
        checks.add("empty-set-not-portable", verdict is False)
    else:
        report = portability_report(c, _spec(args))
        agree = (
            report.maximal_on_samples
            == report.coupling_identity_on_samples
            == report.hull_adds_nothing
            == report.hull_equals_carrier
            == verdict
        )
        checks.add("four-conditions-agree", agree)
        if report.failure_pair is not None:
            doc["witnesses"]["failurePair"] = jsonable(report.failure_pair)
    return _finish(doc, checks, args)


def cmd_report(args) -> int:
    c = _nonempty(_load_set(args.set), "the set")
    report = portability_report(c, _spec(args))
    doc = {
        "verb": "report",
        "inputs": {"set": fmt_set(c)},
        "result": jsonable(report),
        "witnesses": {},
    }
    checks = CheckSet()
    checks.add(
        "four-conditions-agree",
        report.maximal_on_samples
        == report.coupling_identity_on_samples
        == report.hull_adds_nothing
        == report.hull_equals_carrier,
    )
    return _finish(doc, checks, args)


def cmd_phi(args) -> int:
    c = _load_set(args.set)
    x = _point_arg(args.point, c.dim, "--point")
    xstar = _point_arg(args.dual, c.dim, "--dual")
    value = normal_cone_fitzpatrick(c, x, xstar)
    doc = {
        "verb": "phi",
        "inputs": {
            "dual": fmt_vector(xstar),
            "point": fmt_vector(x),
            "set": fmt_set(c),
        },
        "result": {"value": str(value)},
        "witnesses": {},
    }
    checks = CheckSet()
    if not isinstance(c, EmptySet):
        if c.dim <= FACE_DIM_CAP:
            checks.add(
                "two-routes-agree",
                value == normal_cone_fitzpatrick_by_faces(c, x, xstar),
            )
        zero = tuple(Fraction(0) for _ in range(c.dim))
        at_zero = normal_cone_fitzpatrick(c, x, zero)
        expected = fin(Fraction(0)) if in_portable_hull(c, x) else POS_INF
        checks.add("zero-dual-is-hull-indicator", at_zero == expected)
    return _finish(doc, checks, args)


def cmd_separate(args) -> int:
    c = _nonempty(_load_set(args.set), "the set")
    x = _point_arg(args.point, c.dim, "--point")
    cert = separation_certificate(c, x)
    doc = {
        "verb": "separate",
        "inputs": {"point": fmt_vector(x), "set": fmt_set(c)},
        "witnesses": {},
    }
    checks = CheckSet()
    inside_hull = in_portable_hull(c, x)
    if cert is None:
        doc["result"] = {"inPortableHull": True, "separating": False}
    else:
        doc["result"] = {
            "inPortableHull": False,
            "margin": str(cert.margin),
            "normal": fmt_vector(cert.normal),
            "separating": True,
            "supportPoint": fmt_vector(cert.support_point),
        }
        checks.add("certificate-reverifies", verify_certificate(c, x, cert))
    checks.add("separation-iff-outside-hull", (cert is None) == inside_hull)
    return _finish(doc, checks, args)


def cmd_normal_cone(args) -> int:
    c = _nonempty(_load_set(args.set), "the set")
    x = _point_arg(args.point, c.dim, "--point")
    k = normal_cone_at(c, x)
    doc = {
        "verb": "normal-cone",
        "inputs": {"point": fmt_vector(x), "set": fmt_set(c)},
        "result": jsonable(k),
        "witnesses": {},
    }
    checks = CheckSet()
    checks.add(
        "generators-attain-support",
        all(in_normal_cone(c, x, g) for g in k.generators),
    )
    checks.add(
        "generators-in-dual-range",
        all(in_range(c, g).member for g in k.generators),
    )
    return _finish(doc, checks, args)


def cmd_sigma(args) -> int:
    c = _load_set(args.set)
    xstar = _point_arg(args.dual, c.dim, "--dual")
    ev = support_value(c, xstar)
    doc = {
        "verb": "sigma",
        "inputs": {"dual": fmt_vector(xstar), "set": fmt_set(c)},
        "result": jsonable(ev),
        "witnesses": {},
    }
    checks = CheckSet()
    if ev.attained_in_set:
        ok = (
            ev.value.is_finite
            and contains(c, ev.witness)
            and dot(xstar, ev.witness) == ev.value.finite_value
        )
        checks.add("witness-attains", ok)
    doubled = support_value(c, tuple(2 * q for q in xstar))
    checks.add("positive-homogeneity", doubled.value == ev.value.scale(Fraction(2)))
    return _finish(doc, checks, args)


def cmd_psi(args) -> int:
    g = parse_graph(_load(args.graph))
    x = _point_arg(args.point, g.dim, "--point")
    xstar = _point_arg(args.dual, g.dim, "--dual")
    ev = rep_value(g, x, xstar)
    doc = {
        "verb": "psi",
        "inputs": {
            "dual": fmt_vector(xstar),
            "graph": jsonable(g),
            "point": fmt_vector(x),
        },
        "result": jsonable(ev),
        "witnesses": {},
    }
    checks = CheckSet()
    if ev.value.is_finite:
        lam = ev.coefficients
        xs = tuple(
            sum(w * a[j] for w, (a, _) in zip(lam, g.pairs)) for j in range(g.dim)
        )
        ds = tuple(
            sum(w * astar[j] for w, (_, astar) in zip(lam, g.pairs))
            for j in range(g.dim)
        )
        cost = sum(w * dot(a, astar) for w, (a, astar) in zip(lam, g.pairs))
        checks.add(
            "weights-reproduce-pair",
            xs == x and ds == xstar and fin(cost) == ev.value and sum(lam) == 1,
        )
    if is_monotone(g):
        checks.add("dominates-coupling-when-monotone", ev.value >= fin(dot(x, xstar)))
    return _finish(doc, checks, args)


def cmd_sum_check(args) -> int:
    t = parse_graph(_load(args.graph))
    c = _nonempty(_load_set(args.set), "the set")
    x = _point_arg(args.point, c.dim, "--point")
    xstar = _point_arg(args.dual, c.dim, "--dual")
    m = sum_graph_membership(t, c, x, xstar)
    doc = {
        "verb": "sum-check",
        "inputs": {
            "dual": fmt_vector(xstar),
            "graph": jsonable(t),
            "point": fmt_vector(x),
            "set": fmt_set(c),
        },
        "result": jsonable(m),
        "witnesses": {},
    }
    checks = CheckSet()
    checks.add("membership-two-routes-agree", m.agrees)
    enum_value = rep_sum_value_by_enumeration(t, c, x, xstar)
    checks.add("joint-lp-matches-enumeration", m.value == enum_value)
    if m.rhs and m.cone_part is not None:
        checks.add(
            "decomposition-in-normal-cone",
            cone_contains(normal_cone_at(c, x), m.cone_part),
        )
    if args.grid is not None:
        probe = representability_probe(t, c, GridSpec(step=args.grid))
        doc["witnesses"]["probe"] = jsonable(probe)
        checks.add("probe-did-not-falsify", probe.verdict != "falsified")
    return _finish(doc, checks, args)


def cmd_probe_bp(args) -> int:
    c = _nonempty(_load_set(args.set), "the set")
    report = boundary_support_report(c, _spec(args))
    doc = {
        "verb": "probe-bp",
        "inputs": {"set": fmt_set(c)},
        "result": jsonable(report),
        "witnesses": {},
    }
    checks = CheckSet()
    checks.add("boundary-points-are-support-points", report["ok"])
    return _finish(doc, checks, args)


def cmd_check_thm7(args) -> int:
    c = _nonempty(_load_set(args.set), "the set")
    report = line_free_report(c, _spec(args))
    doc = {
        "verb": "check-thm7",
        "inputs": {"set": fmt_set(c)},
        "result": jsonable(report),
        "witnesses": {},
    }
    checks = CheckSet()
    checks.add("line-free-implies-portable", report["lineFreeImpliesPortable"])
    checks.add("support-domain-matches-range", report["domainMatchesRange"])
    checks.add("bounded-attains-every-dual", report["boundedAttainsAll"])
    return _finish(doc, checks, args)


def cmd_check_enc(args) -> int:
    c = _nonempty(_load_set(args.set), "the set")
    report = hull_extension_report(c, _spec(args))
    doc = {
        "verb": "check-enc",
        "inputs": {"set": fmt_set(c)},
        "result": jsonable(report),
        "witnesses": {},
    }
    checks = CheckSet()
    checks.add("hull-idempotent", report["idempotent"])
    checks.add("hull-portable", report["hullPortable"])
    checks.add("hull-contains-closure", report["hullContainsClosure"])
    checks.add("cones-preserved-on-samples", report["conesPreservedOnSamples"])
    checks.add("graph-extended-on-samples", report["graphExtendedOnSamples"])
    return _finish(doc, checks, args)


def cmd_check_ncs(args) -> int:
    c = _nonempty(_load_set(args.set), "the set")
    s = _load_probe(args.probe)
    report = partial_hull_report(c, s, _spec(args))
    doc = {
        "verb": "check-ncs",
        "inputs": {"probe": jsonable(s), "set": fmt_set(c)},
        "result": jsonable(report),
        "witnesses": {},
    }
    checks = CheckSet()
    checks.add("partial-hull-collapse", report["collapse"])
    checks.add("restriction-biconditional", report["restrictionBiconditional"])
    return _finish(doc, checks, args)


def cmd_selftest(args) -> int:
    ok, report = run_selftest(seed=args.seed, samples=args.samples)
    doc = {
        "verb": "selftest",
        "inputs": {"samples": args.samples, "seed": args.seed},
        "result": jsonable(report),
        "witnesses": {},
    }
    checks = CheckSet()
    for name, body in report.items():
        checks.add(name, body["ok"])
    return _finish(doc, checks, args)


def _grid_fraction(raw: str) -> Fraction:
    try:
        q = rat(raw)
    except InputError:
        raise argparse.ArgumentTypeError(f"not a rational step: {raw!r}")
    if q <= 0:
        raise argparse.ArgumentTypeError("grid step must be positive")
    return q


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="phk",
        description="Exact polyhedral convex analysis: hulls, separation, "
        "coupling functions, and identity checks.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="sample seed (default 0)")
    common.add_argument(
        "--samples", type=int, default=24, help="sample count per family"
    )
    common.add_argument("--out", help="write the JSON document here instead of stdout")
    sub = top.add_subparsers(dest="verb", required=True)

    def add(name, fn, parents=(common,), **kwargs):
        p = sub.add_parser(name, parents=list(parents), **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("hull", cmd_hull, help="portable hull of a set")
    p.add_argument("set", help="set description JSON file")

    p = add("partial-hull", cmd_partial_hull, help="hull restricted to a probe set")
    p.add_argument("set")
    p.add_argument("probe", help="probe set: polyhedron or {points: [..]} JSON file")

    p = add("portable", cmd_portable, help="is the set portable?")
    p.add_argument("set")

    p = add("report", cmd_report, help="four-condition portability report")
    p.add_argument("set")

    p = add("phi", cmd_phi, help="normal-cone coupling value at (point, dual)")
    p.add_argument("set")
    p.add_argument("--point", required=True, help='JSON vector, e.g. "[\\"1/2\\"]"')
    p.add_argument("--dual", required=True, help="JSON vector")

    p = add("separate", cmd_separate, help="supporting half-space separation")
    p.add_argument("set")
    p.add_argument("--point", required=True)

    p = add("normal-cone", cmd_normal_cone, help="normal cone at a point of the set")
    p.add_argument("set")
    p.add_argument("--point", required=True)

    p = add("sigma", cmd_sigma, help="support function value with attainment")
    p.add_argument("set")
    p.add_argument("--dual", required=True)

    p = add("psi", cmd_psi, help="convexified coupling of a finite graph")
    p.add_argument("graph")
    p.add_argument("--point", required=True)
    p.add_argument("--dual", required=True)

    p = add("sum-check", cmd_sum_check, help="graph membership for graph + normal cones")
    p.add_argument("graph")
    p.add_argument("set")
    p.add_argument("--point", required=True)
    p.add_argument("--dual", required=True)
    p.add_argument(
        "--grid",
        type=_grid_fraction,
        default=None,
        help="also run the grid probe with this rational step",
    )

    p = add("probe-bp", cmd_probe_bp, help="boundary support-point density probe")
    p.add_argument("set")

    p = add("check-thm7", cmd_check_thm7, help="line-free/portability and range checks")
    p.add_argument("set")

    p = add("check-enc", cmd_check_enc, help="hull extension and idempotence checks")
    p.add_argument("set")

    p = add("check-ncs", cmd_check_ncs, help="partial hull restriction checks")
    p.add_argument("set")
    p.add_argument("probe")

    p = add("selftest", cmd_selftest, help="run the condensed invariant suite")

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
