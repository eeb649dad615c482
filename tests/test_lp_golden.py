"""Kernel-level golden: the full ``LPOutcome`` of ``lp_solve`` on a fixed corpus.

``golden_lp.json`` holds about 300 seeded LPs and Beale's cycling example,
each with the outcome the kernel returned when the file was recorded: status,
value, primal point, dual multipliers, ray and Farkas multipliers, every
number as a ``"p/q"`` string.  The corpus draws rational coefficients with
denominators 1 to 6 and negative offsets, and it plants zero, duplicated,
positively scaled and equality rows, infeasible systems and unbounded
objectives.  Any change to the tableau arithmetic must reproduce every field,
because the CLI prints these certificates.  To record the file again after a
deliberate change of pivot rule, run from the repository root:

    PYTHONPATH=src python3 tests/test_lp_golden.py
"""
from __future__ import annotations

import json
import random
import sys
from collections import Counter
from fractions import Fraction
from functools import cache
from pathlib import Path

from phk.lp import LPOutcome, LPProblem, lp_solve, problem, verify_outcome

GOLDEN = Path(__file__).resolve().parent / "golden_lp.json"
FIELDS = ("status", "value", "primal", "dual", "ray", "farkas")
KINDS = ("plain", "zero", "duplicate", "scaled", "equality", "infeasible", "unbounded")


def _q(rng: random.Random, top: int = 6) -> Fraction:
    return Fraction(rng.randint(-top, top), rng.randint(1, 6))


def _random_lp(rng: random.Random, kind: str) -> tuple[list, list]:
    """Objective and rows of one LP of the given kind."""
    n = rng.randint(1, 4)
    x0 = [_q(rng, 4) for _ in range(n)]
    rows = []
    for _ in range(rng.randint(1, 6)):
        normal = [_q(rng) for _ in range(n)]
        slack = rng.choice((Fraction(0), Fraction(0), _q(rng, 3) ** 2))
        rows.append((normal, sum(a * x for a, x in zip(normal, x0)) + slack))
    if rng.random() < 0.5:  # a box around x0 keeps most objectives bounded
        for i in range(n):
            for s in (1, -1):
                unit = [Fraction(s if k == i else 0) for k in range(n)]
                rows.append((unit, s * x0[i] + rng.randint(0, 3)))
    objective = [_q(rng) for _ in range(n)]
    if kind == "zero":
        offset = rng.choice((Fraction(0), Fraction(1), Fraction(-1)))
        rows.insert(rng.randint(0, len(rows)), ([Fraction(0)] * n, offset))
    elif kind == "duplicate":
        rows.insert(rng.randint(0, len(rows)), rng.choice(rows))
    elif kind == "scaled":
        normal, offset = rng.choice(rows)
        t = Fraction(rng.randint(1, 6), rng.randint(1, 6))
        rows.insert(rng.randint(0, len(rows)), ([t * a for a in normal], t * offset))
    elif kind == "equality":
        normal, offset = rng.choice(rows)
        rows.insert(rng.randint(0, len(rows)), ([-a for a in normal], -offset))
    elif kind == "infeasible":
        normal, offset = rng.choice(rows)
        gap = Fraction(rng.randint(1, 6), rng.randint(1, 6))
        rows.insert(rng.randint(0, len(rows)), ([-a for a in normal], -offset - gap))
    elif kind == "unbounded":
        # Every row is turned to hold along the ray from x0, and the
        # objective is the ray itself.
        ray = [_q(rng) or Fraction(1) for _ in range(n)]
        turned = []
        for normal, _ in rows:
            if sum(a * d for a, d in zip(normal, ray)) > 0:
                normal = [-a for a in normal]
            turned.append((normal, sum(a * x for a, x in zip(normal, x0)) + rng.randint(0, 2)))
        objective, rows = ray, turned
    return objective, rows


def beale() -> tuple[list, list]:
    """Beale's (1955) example, on which the textbook pivot rule cycles:
    maximize 3/4 x1 - 20 x2 + 1/2 x3 - 6 x4 over x >= 0 with
    1/4 x1 - 8 x2 - x3 + 9 x4 <= 0, 1/2 x1 - 12 x2 - 1/2 x3 + 3 x4 <= 0, x3 <= 1."""
    q = Fraction
    rows = [
        ([q(1, 4), q(-8), q(-1), q(9)], q(0)),
        ([q(1, 2), q(-12), q(-1, 2), q(3)], q(0)),
        ([q(0), q(0), q(1), q(0)], q(1)),
    ]
    rows += [([q(-1 if k == i else 0) for k in range(4)], q(0)) for i in range(4)]
    return [q(3, 4), q(-20), q(1, 2), q(-6)], rows


def corpus(seed: int = 1968, count: int = 301) -> list[tuple[str, LPProblem]]:
    rng = random.Random(seed)
    out = [("beale", problem(*beale()))]
    for k in range(1, count):
        kind = KINDS[k % len(KINDS)]
        out.append((f"{kind}-{k}", problem(*_random_lp(rng, kind))))
    return out


def _strs(xs) -> list[str] | None:
    return None if xs is None else [str(x) for x in xs]


def encode_problem(p: LPProblem) -> dict:
    return {"objective": _strs(p.objective), "rows": [[_strs(a), str(b)] for a, b in p.rows]}


def encode_outcome(o: LPOutcome) -> dict:
    return {
        "status": o.status,
        "value": None if o.value is None else str(o.value),
        "primal": _strs(o.primal),
        "dual": _strs(o.dual),
        "ray": _strs(o.ray),
        "farkas": _strs(o.farkas),
    }


@cache
def _golden() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _stored_problem(entry: dict) -> LPProblem:
    return problem(entry["problem"]["objective"], [(a, b) for a, b in entry["problem"]["rows"]])


def test_kernel_reproduces_every_outcome_field():
    wrong = []
    for entry in _golden():
        p = _stored_problem(entry)
        out = lp_solve(p)
        assert verify_outcome(p, out), entry["name"]
        got = encode_outcome(out)
        wrong += [(entry["name"], f) for f in FIELDS if got[f] != entry["outcome"][f]]
    assert wrong == []


def test_corpus_reaches_every_case():
    entries = _golden()
    assert len(entries) >= 300
    assert {e["name"].split("-")[0] for e in entries} == set(KINDS) | {"beale"}
    statuses = Counter(e["outcome"]["status"] for e in entries)
    assert min(statuses[s] for s in ("optimal", "unbounded", "infeasible")) >= 20, statuses
    dens = {
        Fraction(c).denominator
        for e in entries
        for normal, offset in e["problem"]["rows"]
        for c in normal + [offset]
    }
    assert set(range(1, 7)) <= dens
    assert any(Fraction(offset) < 0 for e in entries for _, offset in e["problem"]["rows"])


def test_beale_terminates_at_its_optimum():
    (entry,) = (e for e in _golden() if e["name"] == "beale")
    assert entry["outcome"]["status"] == "optimal"
    assert entry["outcome"]["value"] == "5/4"


if __name__ == "__main__":
    doc = [
        {"name": name, "problem": encode_problem(p), "outcome": encode_outcome(lp_solve(p))}
        for name, p in corpus()
    ]
    GOLDEN.write_text(
        "[\n" + ",\n".join(json.dumps(e, sort_keys=True) for e in doc) + "\n]\n", encoding="utf-8"
    )
    print(f"wrote {len(doc)} entries to {GOLDEN}", file=sys.stderr)
