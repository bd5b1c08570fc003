"""The executable fixture corpus: six classical certificate examples with
named, independently re-runnable checks.

Fixture inputs ship as data files in the wire formats (see ``data/``), so
they double as format documentation.  Reports are byte-stable for fixed
seeds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable, Optional

from . import quadratic
from .clifford import clifford_generators
from .detrep import (
    PolyMatrix,
    SosRefusal,
    _companion_match,
    _lattice_match,
    const_det,
    detrep_to_sos,
    plucker_line,
    polymatrix_from_json,
    polymatrix_to_pencil,
    verify_pencil,
)
from .hyperbolicity import (
    STATUS_NO_COUNTEREXAMPLE,
    STATUS_REFUTED,
    is_hyperbolic_sampled,
    sample_direction,
)
from .polyring import MultiPoly, _sum_of_squares, parse, restrict_to_line
from .realroots import is_real_rooted
from .scalars import first_nonpositive_minor
from .wire import parse_point, parse_poly_text

FIXTURE_IDS = ("F1", "F2", "F3", "F4", "F5", "F6")


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    ok: bool
    detail: str

    def to_json_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


@dataclass
class FixtureResult:
    fixture_id: str
    title: str
    checks: list[CheckOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "id": self.fixture_id,
            "title": self.title,
            "ok": self.ok,
            "checks": [c.to_json_dict() for c in self.checks],
        }


@dataclass
class FixtureReport:
    results: list[FixtureResult]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "passed": sum(1 for r in self.results if r.ok),
            "total": len(self.results),
            "fixtures": [r.to_json_dict() for r in self.results],
        }


def _data_text(name: str) -> str:
    return resources.files("hypercert.data").joinpath(name).read_text(encoding="ascii")


def _manifest() -> dict:
    return json.loads(_data_text("fixtures.json"))


def load_fixture_poly(name: str) -> MultiPoly:
    return parse_poly_text(_data_text(name))


def load_fixture_matrix(name: str) -> PolyMatrix:
    return polymatrix_from_json(_data_text(name))


def _report_checks(result: FixtureResult, report, names: dict[str, str]) -> None:
    """Map DetRepReport failures onto named fixture checks."""
    failed = {}
    for f in report.failures:
        failed.setdefault(f.name, f.witness)
    for check_name, report_name in names.items():
        if report_name in failed:
            result.checks.append(CheckOutcome(check_name, False, failed[report_name]))
        else:
            result.checks.append(CheckOutcome(check_name, True, "ok"))


def _run_pencil_fixture(fixture_id: str, spec: dict) -> FixtureResult:
    result = FixtureResult(fixture_id, spec["title"])
    matrix = load_fixture_matrix(spec["files"]["matrix"])
    h = load_fixture_poly(spec["files"]["poly"])
    e = parse_point(spec["params"]["dir"])
    r = int(spec["params"]["power"])
    pencil = polymatrix_to_pencil(matrix)
    report = verify_pencil(pencil, h, r, e, up_to_scalar=False)
    _report_checks(
        result,
        report,
        {
            matrix.kind: "kind",
            "determinant-equals-h": "determinant",
            "positive-definite-at-e": "positive-definite",
        },
    )
    result.checks.append(
        CheckOutcome("scalar-is-one", report.scalar == 1, f"c = {report.scalar}")
    )
    return result


def _run_f3(fixture_id: str, spec: dict) -> FixtureResult:
    result = FixtureResult(fixture_id, spec["title"])
    matrix = load_fixture_matrix(spec["files"]["matrix"])
    h = load_fixture_poly(spec["files"]["h"])
    p = load_fixture_poly(spec["files"]["p"])
    r = int(spec["params"]["power"])

    bad = matrix.kind_violation()
    result.checks.append(
        CheckOutcome("hermitian", bad is None, "ok" if bad is None else f"entry {bad}")
    )

    bad = matrix.matmul(matrix).scalar_mismatch(p)
    detail = "A^2 = p*I" if bad is None else f"A^2 entry ({bad[0]},{bad[1]}) is {bad[2]}"
    result.checks.append(CheckOutcome("involution", bad is None, detail))

    witness = _companion_match(matrix, h, r)
    result.checks.append(CheckOutcome("companion-determinant", witness is None, witness or "det(y*I - A) = h"))

    try:
        sos = detrep_to_sos(matrix, p, column=0)
    except SosRefusal as err:  # not involutive: no squares to check
        for name in ("three-square-identity", "sos-sums-to-p"):
            result.checks.append(CheckOutcome(name, False, str(err)))
        return result
    expected = [parse(s, matrix.ring) for s in spec["params"]["expected_squares"]]
    matches = sorted(map(str, sos.squares)) == sorted(map(str, expected))
    result.checks.append(
        CheckOutcome(
            "three-square-identity",
            matches,
            f"squares: {[str(g) for g in sos.squares]}",
        )
    )
    total = _sum_of_squares(matrix.ring, sos.squares)
    result.checks.append(
        CheckOutcome("sos-sums-to-p", total == p, "exact" if total == p else str(total - p))
    )
    return result


def _run_f4(fixture_id: str, spec: dict) -> FixtureResult:
    result = FixtureResult(fixture_id, spec["title"])
    matrix = load_fixture_matrix(spec["files"]["matrix"])
    q1 = load_fixture_poly(spec["files"]["quadric1"])
    q2 = load_fixture_poly(spec["files"]["quadric2"])
    base = parse_point(spec["params"]["point"])
    wanted = int(spec["params"]["lines"])
    seed = int(spec["params"]["seed"])
    box = int(spec["params"]["box"])

    bad = matrix.kind_violation()
    result.checks.append(
        CheckOutcome("hermitian", bad is None, "ok" if bad is None else f"entry {bad}")
    )

    member = not q1.eval_rational(base) and not q2.eval_rational(base)
    result.checks.append(
        CheckOutcome(
            "base-point-on-surface",
            member,
            f"q1 = {q1.eval_rational(base)}, q2 = {q2.eval_rational(base)}",
        )
    )

    # The spanning line of the hyperbolicity subspace: x34 = 1, the rest 0.
    e_coords = plucker_line((0, 0, 0, 1, 0), (0, 0, 0, 0, 1))
    at_e = matrix.eval_at(e_coords)
    is_twice_identity = all(
        at_e.entries[i][j] == (2 if i == j else 0)
        for i in range(at_e.size)
        for j in range(at_e.size)
    )
    result.checks.append(
        CheckOutcome("value-at-E-is-2I", is_twice_identity, "2*I" if is_twice_identity else "mismatch")
    )
    if bad is None:  # Sylvester's test holds for a hermitian matrix only
        bad_minor = first_nonpositive_minor(at_e)
        detail = "ok" if bad_minor is None else "leading principal minor of order {} at E is {}".format(*bad_minor)
        result.checks.append(CheckOutcome("positive-definite-at-E", bad_minor is None, detail))

    vanished = 0
    tried = 0
    index = 0
    worst = ""
    while vanished + 1 <= wanted and index < 50 * wanted:
        q_point = sample_direction(seed, index, 5, box)
        index += 1
        try:
            coords = plucker_line(base, q_point)
        except ValueError:
            continue
        tried += 1
        det = const_det(matrix.eval_at(coords))
        if det.is_zero():
            vanished += 1
        else:
            worst = f"line through {q_point} gives det {det}"
            break
        if vanished == wanted:
            break
    ok = vanished >= wanted
    result.checks.append(
        CheckOutcome(
            "chow-form-vanishes-on-incident-lines",
            ok,
            f"{vanished}/{wanted} sampled lines through the base point" + ("" if ok else f"; {worst}"),
        )
    )
    return result


def _run_f5(fixture_id: str, spec: dict) -> FixtureResult:
    result = FixtureResult(fixture_id, spec["title"])
    h = load_fixture_poly(spec["files"]["poly"])
    control = load_fixture_poly(spec["files"]["control"])
    e = parse_point(spec["params"]["dir"])
    e_control = parse_point(spec["params"]["control_dir"])
    samples = int(spec["params"]["samples"])
    seed = int(spec["params"]["seed"])
    box = int(spec["params"]["box"])

    verdict = is_hyperbolic_sampled(h, e, samples=samples, seed=seed, box=box)
    result.checks.append(
        CheckOutcome(
            "no-counterexample",
            verdict.status == STATUS_NO_COUNTEREXAMPLE,
            f"{verdict.samples_run} lines tested",
        )
    )
    verdict2 = is_hyperbolic_sampled(h, e, samples=samples, seed=seed, box=box)
    result.checks.append(
        CheckOutcome(
            "seed-deterministic",
            verdict.to_json_dict() == verdict2.to_json_dict(),
            "identical verdict on re-run",
        )
    )

    refuted = is_hyperbolic_sampled(control, e_control, samples=samples, seed=seed, box=box)
    result.checks.append(
        CheckOutcome(
            "control-refuted",
            refuted.status == STATUS_REFUTED and refuted.witness is not None,
            f"witness line {tuple(map(str, refuted.witness.v))}" if refuted.witness else "no witness",
        )
    )
    if refuted.witness is not None:
        again = restrict_to_line(control, e_control, refuted.witness.v)
        sound = again == refuted.witness.restricted and not is_real_rooted(again)
        result.checks.append(
            CheckOutcome(
                "witness-reverifies",
                sound,
                f"restriction {again.format('t')} has non-real roots",
            )
        )
    return result


def _run_f6(fixture_id: str, spec: dict) -> FixtureResult:
    result = FixtureResult(fixture_id, spec["title"])
    h = load_fixture_poly(spec["files"]["poly"])
    e = parse_point(spec["params"]["dir"])
    rep = quadratic.quadratic_detrep(h, e, clifford_generators)
    size = rep.pencil[0].size
    result.checks.append(
        CheckOutcome(
            "three-variable-shape",
            size == 8 and rep.power == 4 and rep.scalar == 256,
            f"size {size}, r = {rep.power}, c = {rep.scalar}",
        )
    )
    exact = _lattice_match(rep.pencil, h, 4, up_to_scalar=True) == (256, None)  # c = 256, no witness
    result.checks.append(CheckOutcome("determinant-256-h4", exact, "exact" if exact else "mismatch"))
    result.checks.append(
        CheckOutcome("positive-definite-at-e", rep.report.ok, json.dumps(rep.report.to_json_dict()["failures"]))
    )

    h5 = load_fixture_poly(spec["files"]["poly5"])
    e5 = parse_point(spec["params"]["dir5"])
    rep5 = quadratic.quadratic_detrep(h5, e5, clifford_generators)
    size5 = rep5.pencil[0].size
    used_shortcut = rep5.report.notes.get("method") == "minimal-polynomial-shortcut"
    result.checks.append(
        CheckOutcome(
            "five-variable-shortcut",
            size5 == 32 and rep5.power == 16 and rep5.report.ok and used_shortcut,
            f"size {size5}, r = {rep5.power}, c = {rep5.scalar}, method = {rep5.report.notes.get('method')}",
        )
    )
    return result


_RUNNERS: dict[str, Callable[[str, dict], FixtureResult]] = {
    "F1": _run_pencil_fixture,
    "F2": _run_pencil_fixture,
    "F3": _run_f3,
    "F4": _run_f4,
    "F5": _run_f5,
    "F6": _run_f6,
}


def run_fixture(fixture_id: str) -> FixtureResult:
    manifest = _manifest()
    if fixture_id not in manifest:
        raise KeyError(f"unknown fixture {fixture_id!r}; known: {', '.join(FIXTURE_IDS)}")
    return _RUNNERS[fixture_id](fixture_id, manifest[fixture_id])


def run_fixtures(fixture_id: Optional[str] = None) -> FixtureReport:
    ids = [fixture_id] if fixture_id else list(FIXTURE_IDS)
    return FixtureReport([run_fixture(fid) for fid in ids])
