"""Outcome checker, run in the parent after the timed loop has finished.

``check(job, outcome)`` returns (status, detail) for one distinct job:

    ok        the outcome is the expected one and re-checks exactly
    capacity  a hyperbolic quadric on the baseline list hit the pipeline's
              documented capacity limit ("at most 8 forms"); counted in
              failed_frac (and so ok_frac), not a wrong answer
    wrong     anything else: wrong verdict, witness or certificate, an
              unexpected exit code, an exception out of the CLI, or a
              capacity error on a job outside the baseline list (a job that
              used to be certified and no longer is)

Certificates and witnesses are re-derived with ``exact`` (the benchmark's
own arithmetic), never with ``hypercert``.
"""

from __future__ import annotations

import json
from fractions import Fraction

import exact as ex

CAPACITY_MESSAGE = "at most 8 forms are supported"
# The jobs that hit the capacity limit today (the same for every seed; see
# README.md).  A change may take a job off this list, never add one.
CAPACITY_BASELINE = frozenset({"defect-8forms", "family5-pinned", "family6-pinned"})
DENSE_LIMIT = 32  # pencils up to this size get a dense determinant check


class Mismatch(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def check(job: dict, outcome: dict) -> tuple[str, str]:
    expect = job["expect"]
    if outcome["raised"]:
        return "wrong", f"raised {outcome['raised']}"
    if (
        expect["type"] == "certified"
        and outcome["rc"] == 64
        and CAPACITY_MESSAGE in outcome["stderr"]
    ):
        if job["id"] in CAPACITY_BASELINE:
            return "capacity", outcome["stderr"].strip()
        return "wrong", "capacity error on a job outside the baseline: " + outcome["stderr"].strip()
    try:
        payload = json.loads(outcome["stdout"]) if outcome["stdout"] else None
        CHECKS[expect["type"]](expect, outcome["rc"], payload)
    except Mismatch as err:
        return "wrong", str(err)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as err:
        return "wrong", f"unreadable output: {type(err).__name__}: {err}"
    return "ok", ""


def _sampled(expect, rc, payload):
    refuted = expect["status"] == "refuted"
    _require(rc == (1 if refuted else 0), f"exit code {rc}")
    _require(payload["status"] == expect["status"], f"status {payload['status']}")
    _require(payload["samples"] == expect["samples_run"], f"{payload['samples']} lines, expected {expect['samples_run']}")
    if not refuted:
        _require("witness" not in payload, "unexpected witness")
        return
    witness = payload["witness"]
    v = [Fraction(c) for c in witness["v"]]
    _require(v == [Fraction(c) for c in expect["v"]], f"witness line {witness['v']}, expected {expect['v']}")
    _require(witness["reason"] == expect["reason"], f"reason {witness['reason']}")
    h = ex.parse_real_poly(expect["h"], expect["vars"])
    e = [Fraction(c) for c in expect["e"]]
    again = ex.restrict(h, e, v)
    _require(again == ex.parse_uni(witness["restricted_poly"]), "restriction does not match h(t*e - v)")
    _require(not ex.is_real_rooted(again), "witness restriction is real-rooted")


def _pencil_value(matrices, point):
    """Sum point_i * A_i as sparse rows {column: value}."""
    m = len(matrices[0])
    rows = [dict() for _ in range(m)]
    for mat, x in zip(matrices, point):
        if not x:
            continue
        for i, row in enumerate(mat):
            acc = rows[i]
            for j, cell in enumerate(row):
                if cell != "0":
                    acc[j] = acc.get(j, 0) + x * Fraction(cell)
    return [{j: v for j, v in r.items() if v} for r in rows]


def _dense(rows, m):
    return [[r.get(j, Fraction(0)) for j in range(m)] for r in rows]


def _square_is_scalar(q):
    """P if the sparse symmetric q satisfies q^2 = P*I, else None."""
    value = None
    for i, row in enumerate(q):
        acc = {}
        for k, a in row.items():
            for j, b in q[k].items():
                acc[j] = acc.get(j, 0) + a * b
        acc = {j: x for j, x in acc.items() if x}
        diag = acc.pop(i, Fraction(0))
        if acc or (value is not None and diag != value):
            return None
        value = diag
    return value


def _involution_values(rows, m):
    """(ell, P) with rows = ell*I - Q, trace Q = 0 and Q^2 = P*I, or None."""
    ell = sum((r.get(i, 0) for i, r in enumerate(rows)), Fraction(0)) / m
    q = [{j: (ell if i == j else 0) - v for j, v in r.items()} for i, r in enumerate(rows)]
    for i in range(m):
        q[i].setdefault(i, ell)
        q[i] = {j: v for j, v in q[i].items() if v}
    p = _square_is_scalar(q)
    return None if p is None else (ell, p)


def _certified(expect, rc, payload):
    _require(rc == 0, f"exit code {rc}")
    report = payload["report"]
    _require(report["ok"] and not report["failures"], f"report not ok: {report['failures']}")
    matrices = payload["pencil"]["matrices"]
    names = expect["vars"]
    _require(payload["pencil"]["vars"] == names and len(matrices) == len(names), "pencil variables")
    m, r, c = len(matrices[0]), payload["r"], Fraction(payload["c"])
    _require(m == 2 * r and c > 0, f"size {m}, r = {r}, c = {c}")
    for mat in matrices:
        _require(len(mat) == m and all(len(row) == m for row in mat), "matrices are not square")
        _require(all(mat[i][j] == mat[j][i] for i in range(m) for j in range(i)), "matrix is not symmetric")
    h = ex.parse_real_poly(expect["h"], names)
    p = [Fraction(x) for x in expect["point"]]
    e = [Fraction(x) for x in expect["e"]]
    at_p, at_e = _pencil_value(matrices, p), _pencil_value(matrices, e)
    target = c * ex.poly_eval(h, p) ** r
    if m <= DENSE_LIMIT:
        _require(ex.det(_dense(at_p, m)) == target, "det(sum p_i A_i) != c*h(p)^r")
        _require(ex.is_positive_definite(_dense(at_e, m)), "pencil is not positive definite at e")
        return
    # Large pencils must have the Clifford shape ell*I - Q with Q^2 = P*I;
    # then det = (ell^2 - P)^(m/2) and the eigenvalues at e are ell +- sqrt(P).
    vp, ve = _involution_values(at_p, m), _involution_values(at_e, m)
    _require(vp is not None and ve is not None, "large pencil is not of the form ell*I - Q with Q^2 = P*I")
    _require((vp[0] ** 2 - vp[1]) ** (m // 2) == target, "det(sum p_i A_i) != c*h(p)^r")
    _require(ve[0] > 0 and ve[0] ** 2 > ve[1], "pencil is not positive definite at e")


def _branch_sos(expect, rc, payload):
    _require(rc == 1, f"exit code {rc}")
    _require(payload["stage"] == "branch-sos", f"stage {payload.get('stage')}")
    h = ex.parse_real_poly(expect["h"], expect["vars"])
    e = [Fraction(x) for x in expect["e"]]
    w = [Fraction(x) for x in payload["witness_line"]]
    _require(not ex.is_real_rooted(ex.restrict(h, e, w)), "h(t*e - w) is real-rooted on the witness line")


def _companion(expect, rc, payload):
    _require(rc == 0, f"exit code {rc}")
    _require(payload["report"]["ok"], "report not ok")
    names = expect["vars"]
    squares = [ex.parse_real_poly(g, names) for g in expect["squares"]]
    entries = payload["matrix"]["entries"]
    m = len(entries)
    _require(m == 2 ** (len(squares) + 1) and payload["r"] == m // 2, f"size {m}, r = {payload['r']}")
    p_total = {}
    for g in squares:
        p_total = ex.poly_add(p_total, ex.poly_mul(g, g))
    y_names = ["y"] + names
    lift = {(0,) + e: c for e, c in p_total.items()}
    expected_h = ex.poly_add({(2,) + (0,) * len(names): Fraction(1)}, ex.poly_scale(lift, Fraction(-1)))
    _require(ex.parse_real_poly(payload["h"], y_names) == expected_h, "h is not y^2 - sum of squares")
    point = [Fraction(x) for x in expect["point"]]
    q = [{j: ex.poly_eval(ex.parse_real_poly(cell, names), point) for j, cell in enumerate(row) if cell != "0"}
         for row in entries]
    q = [{j: v for j, v in row.items() if v} for row in q]
    _require(all(q[i].get(j, 0) == q[j].get(i, 0) for i in range(m) for j in q[i]), "Q is not symmetric")
    _require(not sum((q[i].get(i, 0) for i in range(m)), Fraction(0)), "trace of Q is not zero")
    _require(_square_is_scalar(q) == ex.poly_eval(p_total, point), "Q^2 != (sum of squares)*I at the check point")


def _verify(expect, rc, payload):
    wanted = expect["failures"]
    _require(rc == (1 if wanted else 0), f"exit code {rc}")
    names = sorted({f["name"] for f in payload["failures"]})
    _require(names == wanted and payload["ok"] == (not wanted), f"failures {names}, expected {wanted}")


def _sos(expect, rc, payload):
    _require(rc == 0, f"exit code {rc}")
    names = expect["vars"]
    total = {}
    for g in payload["squares"]:
        sq = ex.parse_real_poly(g, names)
        total = ex.poly_add(total, ex.poly_mul(sq, sq))
    re_, im_ = ex.parse_poly(expect["p"], names)
    _require(not im_ and total == re_, "squares do not sum to p")


def _fixtures(expect, rc, payload):
    _require(rc == 0 and payload["ok"] and payload["passed"] == payload["total"], "fixture failed")
    for fixture in payload["fixtures"]:
        bad = [c["name"] for c in fixture["checks"] if not c["ok"]]
        _require(not bad, f"{fixture['id']} failed checks {bad}")


CHECKS = {
    "sampled": _sampled,
    "certified": _certified,
    "branch-sos": _branch_sos,
    "companion": _companion,
    "verify": _verify,
    "sos": _sos,
    "fixtures": _fixtures,
}
