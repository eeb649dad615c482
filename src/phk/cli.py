"""Batch command line front end.

Every invocation reads JSON problem files, runs one operation, and emits a
single JSON document: ``{"verb", "inputs", "result", "witnesses",
"paperChecks"}``.  ``paperChecks`` lists the named identities that were
verified during the run; a falsified identity moves to
``witnesses.falsified`` and flips the exit code to 2.  Input problems exit
with 1.  Identical inputs and options produce byte-identical output.

Each verb is one ``Verb`` entry of ``VERBS``: its inputs, in load order, and
the function computing its result.  ``cmd_verb`` runs any of them and
``build_parser`` reads the same table.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

from .errors import InputError, ScaleLimitError
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
    support_level,
    support_value,
    supporting_row_witnesses,
    supporting_rows,
)
from .polyhedra import (
    EmptySet,
    _canonical_as_set,
    closed_equal,
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
    portability_report,
    portable_hull,
    portable_hull_by_faces,
    separation_certificate,
    verify_certificate,
)
from .representability import (
    GridSpec,
    rep_value,
    rep_sum_value_by_enumeration,
    representability_probe,
    sum_graph_membership,
)
from .sampling import SAMPLE_COUNT_CAP, SampleSpec
from .scalars import POS_INF, _excerpt, _plain, fin, rat
from .serialize import (
    dumps,
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


def _unique_keys(pairs: list) -> dict:
    """``object_pairs_hook`` for ``json``: an object naming a key twice is refused."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise InputError(f"a JSON object repeats the key {key!r}")
        out[key] = value
    return out


def _int_literal(text: str) -> int:
    """``parse_int`` for ``json``: a JSON integer is read under ``rat``'s rule."""
    return int(rat(text))


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(
                fh, object_pairs_hook=_unique_keys, parse_float=rat, parse_int=_int_literal
            )
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except RecursionError:
        raise InputError(f"JSON in {path} is nested too deeply") from None
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _parse(name: str, raw, inputs: dict):
    """One verb input, parsed from its argument; ``inputs`` holds the ones
    read before it, whose set (else graph) fixes a vector's dimension."""
    if name in ("point", "dual"):
        try:
            values = json.loads(
                raw, object_pairs_hook=_unique_keys, parse_float=rat, parse_int=_int_literal
            )
        except RecursionError:
            raise InputError(f"--{name} is nested too deeply") from None
        except json.JSONDecodeError as exc:
            raise InputError(f"--{name} must be a JSON vector: {exc.msg}") from exc
        return parse_vector(values, inputs.get("set", inputs.get("graph")).dim)
    if name == "set":
        return parse_set(_load(raw))
    if name == "graph":
        return parse_graph(_load(raw))
    if name == "probe":
        obj = _load(raw)
        if isinstance(obj, dict) and "points" in obj:
            return parse_points(obj)
        return parse_set(obj)
    return raw


def _spec(args) -> SampleSpec:
    return SampleSpec(seed=args.seed, count=args.samples)


# Each compute function takes the parsed inputs, the parsed arguments and the
# ``CheckSet`` to fill, and returns the document's result and witnesses.


def _hull(inputs, args, checks):
    c = inputs["set"]
    hull = portable_hull(c)
    if isinstance(c, EmptySet):
        checks.add("empty-set-hull-is-space", hull == space(c.dim))
        return hull, {}
    witnesses = {
        "supportingRows": list(supporting_rows(c)),
        "supportPoints": [
            {"row": i, "point": w} for i, w in supporting_row_witnesses(c)
        ],
    }
    hull_set = _canonical_as_set(hull)
    checks.add("hull-contains-closure", closed_subset_of(c.carrier, hull_set))
    again = portable_hull(hull_set)
    checks.add("hull-idempotent", closed_equal(again, hull))
    if c.dim <= FACE_DIM_CAP:
        other = portable_hull_by_faces(c)
        checks.add("hull-matches-face-route", closed_equal(other, hull))
    return hull, witnesses


def _partial_hull(inputs, args, checks):
    c, s = inputs["set"], inputs["probe"]
    hull = portable_hull(c)
    report = partial_hull_report(c, s, _spec(args))
    partial = report["partialHull"]
    # The partial hull's rows are distinct carrier rows, in carrier order.
    index = {row: i for i, row in enumerate(c.carrier.rows)}
    witnesses = {"keptRows": [index[row] for row in partial.rows]}
    checks.add("contains-full-hull", closed_subset_of(hull, partial))
    checks.add("partial-hull-collapse", report["collapse"])
    checks.add("restriction-biconditional", report["restrictionBiconditional"])
    return partial, witnesses


def _portable(inputs, args, checks):
    c = inputs["set"]
    if isinstance(c, EmptySet):
        verdict = is_portable(c)
        checks.add("empty-set-not-portable", verdict is False)
        return verdict, {}
    report = portability_report(c, _spec(args))
    verdict = report.hull_adds_nothing
    checks.add("four-conditions-agree", report.verdicts() == {verdict})
    if report.failure_pair is None:
        return verdict, {}
    return verdict, {"failurePair": report.failure_pair}


def _report(inputs, args, checks):
    report = portability_report(inputs["set"], _spec(args))
    checks.add("four-conditions-agree", len(report.verdicts()) == 1)
    return report, {}


def _phi(inputs, args, checks):
    c, x, xstar = inputs["set"], inputs["point"], inputs["dual"]
    value = normal_cone_fitzpatrick(c, x, xstar)
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
    return {"value": value}, {}


def _separate(inputs, args, checks):
    c, x = inputs["set"], inputs["point"]
    cert = separation_certificate(c, x)
    inside_hull = in_portable_hull(c, x)
    if cert is None:
        result = {"inPortableHull": True, "separating": False}
    else:
        result = {
            "inPortableHull": False,
            "margin": cert.margin,
            "normal": cert.normal,
            "separating": True,
            "supportPoint": cert.support_point,
        }
        checks.add("certificate-reverifies", verify_certificate(c, x, cert))
    checks.add("separation-iff-outside-hull", (cert is None) == inside_hull)
    return result, {}


def _normal_cone(inputs, args, checks):
    c, x = inputs["set"], inputs["point"]
    k = normal_cone_at(c, x)
    checks.add(
        "generators-attain-support",
        all(in_normal_cone(c, x, g) for g in k.generators),
    )
    checks.add(
        "generators-in-dual-range",
        all(in_range(c, g) for g in k.generators),
    )
    return k, {}


def _sigma(inputs, args, checks):
    c, xstar = inputs["set"], inputs["dual"]
    ev = support_value(c, xstar)
    if ev.attained_in_set:
        ok = (
            ev.value.is_finite
            and contains(c, ev.witness)
            and dot(xstar, ev.witness) == ev.value.finite_value
        )
        checks.add("witness-attains", ok)
    doubled = support_level(c, tuple(2 * q for q in xstar))
    checks.add("positive-homogeneity", doubled == ev.value.scale(Fraction(2)))
    return ev, {}


def _psi(inputs, args, checks):
    g, x, xstar = inputs["graph"], inputs["point"], inputs["dual"]
    ev = rep_value(g, x, xstar)
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
    return ev, {}


def _sum_check(inputs, args, checks):
    t, c, x, xstar = (inputs[k] for k in ("graph", "set", "point", "dual"))
    m = sum_graph_membership(t, c, x, xstar)
    checks.add("membership-two-routes-agree", m.agrees)
    enum_value = rep_sum_value_by_enumeration(t, c, x, xstar)
    checks.add("joint-lp-matches-enumeration", m.value == enum_value)
    if m.rhs and m.cone_part is not None:
        checks.add(
            "decomposition-in-normal-cone",
            cone_contains(normal_cone_at(c, x), m.cone_part),
        )
    if args.grid is None:
        return m, {}
    probe = representability_probe(t, c, GridSpec(step=args.grid))
    checks.add("probe-did-not-falsify", probe.verdict != "falsified")
    return m, {"probe": probe}


def _checked_report(report: Callable, verdicts: dict[str, str]) -> Callable:
    """Compute function of a verb whose result is one report dict: each
    named check takes the verdict stored under its key."""

    def compute(inputs, args, checks):
        out = report(*inputs.values(), _spec(args))
        for name, key in verdicts.items():
            checks.add(name, out[key])
        return out, {}

    return compute


def _selftest(inputs, args, checks):
    from .selftest import run_selftest  # only this verb needs the seeded corpora

    _, report = run_selftest(seed=inputs["seed"], samples=inputs["samples"])
    for name, body in report.items():
        checks.add(name, body["ok"])
    return report, {}


class Verb(NamedTuple):
    """One CLI verb.

    ``inputs`` are parsed in this order and echoed under ``"inputs"``;
    ``options`` are further arguments the compute function reads.  A verb
    with ``refuses_empty`` set refuses an empty ``set`` input, naming it so.
    """

    help: str
    compute: Callable
    inputs: tuple[str, ...]
    refuses_empty: str | None = None
    options: tuple[str, ...] = ()


# The report functions are called through their module globals, so a wrapper
# installed on them after import (tracing) sees these calls too.
VERBS = {
    "hull": Verb("portable hull of a set", _hull, ("set",)),
    "partial-hull": Verb(
        "hull restricted to a probe set", _partial_hull, ("set", "probe"), "the base set"
    ),
    "portable": Verb("is the set portable?", _portable, ("set",)),
    "report": Verb("four-condition portability report", _report, ("set",), "the set"),
    "phi": Verb(
        "normal-cone coupling value at (point, dual)", _phi, ("set", "point", "dual")
    ),
    "separate": Verb(
        "supporting half-space separation", _separate, ("set", "point"), "the set"
    ),
    "normal-cone": Verb(
        "normal cone at a point of the set", _normal_cone, ("set", "point"), "the set"
    ),
    "sigma": Verb("support function value with attainment", _sigma, ("set", "dual")),
    "psi": Verb(
        "convexified coupling of a finite graph", _psi, ("graph", "point", "dual")
    ),
    "sum-check": Verb(
        "graph membership for graph + normal cones",
        _sum_check,
        ("graph", "set", "point", "dual"),
        "the set",
        ("grid",),
    ),
    "probe-bp": Verb(
        "boundary support-point density probe",
        _checked_report(
            lambda c, spec: boundary_support_report(c, spec),
            {"boundary-points-are-support-points": "ok"},
        ),
        ("set",),
        "the set",
    ),
    "check-thm7": Verb(
        "line-free/portability and range checks",
        _checked_report(
            lambda c, spec: line_free_report(c, spec),
            {
                "line-free-implies-portable": "lineFreeImpliesPortable",
                "support-domain-matches-range": "domainMatchesRange",
                "bounded-attains-every-dual": "boundedAttainsAll",
            },
        ),
        ("set",),
        "the set",
    ),
    "check-enc": Verb(
        "hull extension and idempotence checks",
        _checked_report(
            lambda c, spec: hull_extension_report(c, spec),
            {
                "hull-idempotent": "idempotent",
                "hull-portable": "hullPortable",
                "hull-contains-closure": "hullContainsClosure",
                "cones-preserved-on-samples": "conesPreservedOnSamples",
                "graph-extended-on-samples": "graphExtendedOnSamples",
            },
        ),
        ("set",),
        "the set",
    ),
    "check-ncs": Verb(
        "partial hull restriction checks",
        _checked_report(
            lambda c, s, spec: partial_hull_report(c, s, spec),
            {
                "partial-hull-collapse": "collapse",
                "restriction-biconditional": "restrictionBiconditional",
            },
        ),
        ("set", "probe"),
        "the set",
    ),
    "selftest": Verb("run the condensed invariant suite", _selftest, ("seed", "samples")),
}


def cmd_verb(args) -> int:
    """Run ``args.verb``: parse its inputs, compute, write the document.

    Returns the exit code: 0, or 2 when a check was falsified.
    """
    count = _excerpt(str(args.samples), str)
    if args.samples < 1:
        raise InputError(f"--samples must be at least 1, got {count}")
    if args.samples > SAMPLE_COUNT_CAP:
        raise ScaleLimitError(f"--samples {count} is above the cap of {SAMPLE_COUNT_CAP}")
    verb = VERBS[args.verb]
    inputs: dict = {}
    for name in verb.inputs:
        inputs[name] = _parse(name, getattr(args, name), inputs)
        if name == "set" and verb.refuses_empty and isinstance(inputs[name], EmptySet):
            raise InputError(f"{verb.refuses_empty} must not be the empty set")
    checks = CheckSet()
    result, witnesses = verb.compute(inputs, args, checks)
    doc = {
        "verb": args.verb,
        "inputs": jsonable(inputs),
        "result": result,
        "witnesses": witnesses,
    }
    code = checks.finish(doc)
    text = dumps(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


def _integer(raw: str) -> int:
    """``int`` for ``--seed`` and ``--samples``, under ``rat``'s literal rule:
    underscores, surrounding whitespace and non-ASCII digits are refused.
    An unreadable value is quoted as ``rat`` quotes a literal, past 40
    characters by its start and its length, where argparse would echo all
    of it."""
    if _plain(raw):
        try:
            return int(raw)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {_excerpt(raw)}")


# The option surface names the type by this name, as it named ``int``.
_integer.__name__ = "int"


def _grid_fraction(raw: str) -> Fraction:
    try:
        q = rat(raw)
    except InputError as exc:  # rat's message quotes a long literal by its size
        raise argparse.ArgumentTypeError(str(exc))
    if q <= 0:
        raise argparse.ArgumentTypeError("grid step must be positive")
    return q


# The argument behind each input or option name; ``seed`` and ``samples``
# are common to every verb.
ARGUMENTS = {
    "set": (("set",), {"help": "set description JSON file"}),
    "probe": (("probe",), {"help": "probe set: polyhedron or {points: [..]} JSON file"}),
    "graph": (("graph",), {"help": "monotone graph JSON file"}),
    "point": (("--point",), {"required": True, "help": 'JSON vector, e.g. "[\\"1/2\\"]"'}),
    "dual": (("--dual",), {"required": True, "help": "JSON vector"}),
    "grid": (
        ("--grid",),
        {
            "type": _grid_fraction,
            "default": None,
            "help": "also run the grid probe with this rational step",
        },
    ),
}


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="phk",
        description="Exact polyhedral convex analysis: hulls, separation, "
        "coupling functions, and identity checks.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_integer, default=0, help="sample seed (default 0)")
    common.add_argument(
        "--samples", type=_integer, default=24, help="sample count per family"
    )
    common.add_argument("--out", help="write the JSON document here instead of stdout")
    sub = top.add_subparsers(dest="verb", required=True)
    for name, verb in VERBS.items():
        p = sub.add_parser(name, parents=[common], help=verb.help)
        for arg in verb.inputs + verb.options:
            if arg in ARGUMENTS:
                flags, kwargs = ARGUMENTS[arg]
                p.add_argument(*flags, **kwargs)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return cmd_verb(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
