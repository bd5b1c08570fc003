"""Command-line front end.

Exit codes: 0 = verified/constructed, 1 = refuted or a check failed (the
report carries the witness), 64 = usage, input or capacity error.

Each certificate is checked in a fresh process, which compiles every module
it imports.  So the module level holds only the parser, ``main`` and the
input formats (``wire``), and each command imports its own modules as it
runs: check-hyperbolic and check-interlacer ``hyperbolicity``, verify-detrep
and detrep-to-sos ``detrep``, sos-to-detrep ``clifford``, quadratic-detrep
``quadratic`` and fixtures ``fixtures``, each with what that module imports.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .polyring import ParseError
from .scalars import DEFAULT_BOX, DEFAULT_SAMPLES, KIND_SYMMETRIC, CapacityError
from .wire import (
    load_poly_file,
    load_squares_file,
    parse_point,
    pencil_from_json,
    pencil_to_json_dict,
)

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # exit 64 instead of argparse's default 2
        raise _UsageError(message)


@contextlib.contextmanager
def _long_numbers():
    """Lift the int-to-str digit limit (sys.set_int_max_str_digits) while a
    report is serialized, since an exact value may be longer, and restore it
    after: input parsing keeps it, so an over-long literal is a ParseError."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _emit(payload: dict, as_json: bool, text_lines: Sequence[str]) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _emit_sampled(verdict, as_json: bool, label: str) -> int:
    with _long_numbers():
        lines = [f"status: {verdict.status} ({verdict.samples_run} lines, seed {verdict.seed})"]
        if verdict.witness is not None:
            lines.append(f"witness line v = {','.join(map(str, verdict.witness.v))}")
            lines.append(f"{label}: {verdict.witness.restricted.format('t')}")
            lines.append(f"reason: {verdict.witness.reason}")
        _emit(verdict.to_json_dict(), as_json, lines)
    return EXIT_OK if not verdict.refuted() else EXIT_REFUTED


def _cmd_check_hyperbolic(args) -> int:
    from .hyperbolicity import is_hyperbolic_sampled
    h = load_poly_file(args.poly)
    e = parse_point(args.dir)
    verdict = is_hyperbolic_sampled(h, e, samples=args.samples, seed=args.seed, box=args.box)
    return _emit_sampled(verdict, args.json, "restriction")


def _cmd_check_interlacer(args) -> int:
    from .hyperbolicity import interlaces_sampled
    h = load_poly_file(args.poly)
    g = load_poly_file(args.interlacer)
    e = parse_point(args.dir)
    verdict = interlaces_sampled(g, h, e, samples=args.samples, seed=args.seed, box=args.box)
    return _emit_sampled(verdict, args.json, "restriction of h")


def _load_matrix_or_pencil(path: str):
    from .detrep import polymatrix_from_json
    try:
        data = json.loads(Path(path).read_text(encoding="ascii"))
    except RecursionError:
        raise ParseError("matrix JSON is nested too deeply") from None
    if isinstance(data, dict) and "matrices" in data:
        matrices, ring = pencil_from_json(data)
        return None, matrices, ring
    matrix = polymatrix_from_json(data)
    return matrix, None, matrix.ring


def _cmd_verify_detrep(args) -> int:
    from .detrep import polymatrix_to_pencil, verify_companion, verify_pencil
    h = load_poly_file(args.poly)
    matrix, matrices, ring = _load_matrix_or_pencil(args.matrix)
    if args.companion:
        if matrix is None:
            raise _UsageError("companion verification needs a polynomial matrix file")
        flag = "--dir" if args.dir is not None else "--up-to-scalar" if args.up_to_scalar else None
        if flag:  # the companion route checks det(y*I - A) = h^r only: no direction, c = 1
            raise _UsageError(f"{flag} does not apply to companion verification")
        report = verify_companion(matrix, h, args.power)
    else:
        # The slices are matched to h's variables by position.
        if ring.variables != h.ring.variables:
            raise ValueError(
                f"pencil variables {list(ring.variables)} differ from h's variables {list(h.ring.variables)}"
            )
        if matrices is None:
            matrices = polymatrix_to_pencil(matrix)
        if args.dir is None:
            raise _UsageError("pencil verification needs --dir")
        e = parse_point(args.dir)
        report = verify_pencil(
            matrices, h, args.power, e, up_to_scalar=args.up_to_scalar
        )
    with _long_numbers():
        lines = [f"ok: {report.ok} (c = {report.scalar}, r = {report.power})"]
        lines.extend(f"failed {f.name}: {f.witness}" for f in report.failures)
        _emit(report.to_json_dict(), args.json, lines)
    return EXIT_OK if report.ok else EXIT_REFUTED


def _cmd_detrep_to_sos(args) -> int:
    from .detrep import SosRefusal, detrep_to_sos
    matrix, matrices, _ = _load_matrix_or_pencil(args.matrix)
    if matrix is None:
        raise _UsageError("SOS extraction needs a polynomial matrix file")
    p = load_poly_file(args.poly)
    try:
        sos = detrep_to_sos(matrix, p, column=args.column)
    except SosRefusal as err:
        print(f"refused: {err}", file=sys.stderr)
        return EXIT_REFUTED
    with _long_numbers():
        lines = [f"{len(sos.squares)} squares summing to p:"]
        lines.extend(f"  {g}" for g in sos.squares)
        _emit(sos.to_json_dict(), args.json, lines)
    return EXIT_OK


def _cmd_sos_to_detrep(args) -> int:
    from .clifford import sos_to_detrep
    forms = load_squares_file(args.squares)
    rep = sos_to_detrep(forms)
    with _long_numbers():
        payload = {
            "h": str(rep.h),
            "r": rep.power,
            "matrix": rep.matrix.to_json_dict(),
            "report": rep.report.to_json_dict(),
        }
        lines = [f"companion matrix of size {rep.matrix.size} with det(y*I - Q) = ({rep.h})^{rep.power}"]
        _emit(payload, args.json, lines)
    return EXIT_OK


def _cmd_quadratic_detrep(args) -> int:
    from .quadratic import PipelineError, quadratic_detrep
    h = load_poly_file(args.poly)
    e = parse_point(args.dir)
    try:
        rep = quadratic_detrep(h, e)
    except PipelineError as err:
        with _long_numbers():
            payload = {"error": str(err), "stage": err.stage}
            if err.witness_vector is not None:
                payload["witness_vector"] = [str(c) for c in err.witness_vector]
            if err.witness_line is not None:
                payload["witness_line"] = [str(c) for c in err.witness_line]
            _emit(payload, args.json, [f"failed: {err}"])
        return EXIT_REFUTED
    with _long_numbers():
        nf = rep.normal_form
        payload = {
            "r": rep.power,
            "c": str(rep.scalar),
            "coordinate_map": [[str(Fraction(v, nf.t_den)) for v in row] for row in nf.transform],
            "kind": KIND_SYMMETRIC,
            "pencil": pencil_to_json_dict(rep.pencil, h.ring.variables, h.ring.gaussian),
            "report": rep.report.to_json_dict(),
        }
        if args.out:  # before the report, so a failed write prints no success
            Path(args.out).write_text(json.dumps(payload["pencil"], indent=2, sort_keys=True) + "\n", encoding="ascii")
        lines = [f"pencil of size {rep.pencil[0].size}: det = {rep.scalar} * h^{rep.power}, definite at e"]
        _emit(payload, args.json, lines)
    return EXIT_OK


def _cmd_fixtures(args) -> int:
    from .fixtures import run_fixtures
    start = time.perf_counter()
    try:
        report = run_fixtures(args.id)
    except KeyError as err:
        raise _UsageError(str(err)) from None
    elapsed = time.perf_counter() - start
    with _long_numbers():
        lines = []
        for res in report.results:
            lines.append(f"{res.fixture_id} {'pass' if res.ok else 'FAIL'}: {res.title}")
            lines.extend(f"  [{'ok' if c.ok else 'FAIL'}] {c.name}: {c.detail}" for c in res.checks)
        data = report.to_json_dict()
        lines.append(f"{data['passed']}/{data['total']} fixtures passed")
        _emit(data, args.json, lines)
    print(f"total runtime: {elapsed:.2f}s", file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_REFUTED


@functools.cache  # built once; main reuses it on every call
def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="hypercert",
        description=(
            "Exact certificates for hyperbolic polynomials: sampled hyperbolicity "
            "and interlacing, determinantal-representation verification, "
            "sum-of-squares extraction, and the quadratic construction."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    def sampling(p):
        p.add_argument("--seed", type=int, default=0, help="RNG seed for sampling")
        p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES, help="number of sampled lines")
        p.add_argument("--box", type=int, default=DEFAULT_BOX, help="coordinate box for sampled points")
        common(p)

    p = sub.add_parser("check-hyperbolic", help="sampled hyperbolicity test")
    p.add_argument("--poly", required=True, help="polynomial file")
    p.add_argument("--dir", required=True, help="direction e, comma-separated rationals")
    sampling(p)
    p.set_defaults(func=_cmd_check_hyperbolic)

    p = sub.add_parser("check-interlacer", help="sampled interlacing test")
    p.add_argument("--poly", required=True, help="polynomial file for h")
    p.add_argument("--interlacer", required=True, help="polynomial file for g")
    p.add_argument("--dir", required=True)
    sampling(p)
    p.set_defaults(func=_cmd_check_interlacer)

    p = sub.add_parser("verify-detrep", help="verify a determinantal representation")
    p.add_argument("--matrix", required=True, help="matrix JSON (polynomial matrix or pencil)")
    p.add_argument("--poly", required=True, help="polynomial file for h")
    p.add_argument("--power", type=int, default=1, help="power r in det = c*h^r")
    p.add_argument("--dir", help="direction e for the definiteness check (pencil mode)")
    p.add_argument("--companion", action="store_true", help="treat input as companion form y*I - A (default: pencil)")
    p.add_argument("--up-to-scalar", action="store_true", help="allow det = c*h^r with c > 0")
    common(p)
    p.set_defaults(func=_cmd_verify_detrep)

    p = sub.add_parser("detrep-to-sos", help="extract a sum of squares from A with A^2 = p*I")
    p.add_argument("--matrix", required=True)
    p.add_argument("--poly", required=True, help="polynomial file for p")
    p.add_argument("--column", type=int, default=0)
    common(p)
    p.set_defaults(func=_cmd_detrep_to_sos)

    p = sub.add_parser("sos-to-detrep", help="Clifford construction from squares")
    p.add_argument("--squares", required=True, help="file with a ring header and one polynomial per line")
    common(p)
    p.set_defaults(func=_cmd_sos_to_detrep)

    p = sub.add_parser("quadratic-detrep", help="definite pencil for a quadratic hyperbolic polynomial "
                       "(8x8 for up to 4 branch squares, 16x16 for up to 8, at most 512x512)")
    p.add_argument("--poly", required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--out", help="also write the pencil JSON to this file")
    common(p)
    p.set_defaults(func=_cmd_quadratic_detrep)

    p = sub.add_parser("fixtures", help="run the built-in example corpus")
    p.add_argument("action", choices=["run"])
    p.add_argument("--id", help="run a single fixture (F1..F6)")
    common(p)
    p.set_defaults(func=_cmd_fixtures)

    return parser


def _joined_points(argv: Sequence[str]) -> list[str]:
    """argv with each ``--dir -1,0`` joined into ``--dir=-1,0``: argparse
    takes an argument that starts with '-' and is not a plain negative
    number for an option, so a point with a negative first coordinate would
    be refused, while ``--dir --json`` stays a missing value."""
    out: list[str] = []
    for arg in argv:
        if out[-1:] == ["--dir"] and arg[:1] == "-" and arg[1:2] and arg[1] in "0123456789.":
            out[-1] = f"--dir={arg}"
        else:
            out.append(arg)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_joined_points(sys.argv[1:] if argv is None else argv))
        return args.func(args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as err:
        print(f"capacity error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
