"""File and CLI wire formats.

Polynomial files carry a ring header followed by one expression in the
polynomial grammar:

    ring: vars=x0,x1,x2 weights=1,1,1 gaussian=false
    x0^2 - x1^2 - x2^2

Directions are comma-separated rationals ("1,0,0" or "1/2,-3,0"), in
ASCII and without "_" like the header's weights.  Pencils
serialize as JSON {"vars": [...], "kind": ..., "gaussian": ...,
"matrices": [rows of "a+b*i" strings, one block per variable]}.

Polynomials, squares-file lines, polynomial-matrix entries and pencil cells
all go through the one parser, ``polyring.parse`` (see the polyring
docstring); its literals and names are ASCII.  A text that is one Gaussian
integer literal, such as a pencil cell "12-7*i", is read without the
grammar, by the match ``polyring.parse`` uses.  A pencil's cells are read
in the ring it declares, each distinct text once per file, into (re, im)
ints, or for any other text the parts of the int form ``polyring.parse``
gives it over its denominator.  All parts are scaled by the lcm of their
denominators (``scalars._over_den``) into each slice's integer form, the
one form a ``ConstMatrix`` keeps, and ``pencil_to_json_dict`` writes the
cells back from that form (``ConstMatrix.to_rows``).  A polynomial
matrix's ``ring.weights`` must be JSON integers.  A JSON file of the wrong
shape is a ParseError that names the bad field or cell.
"""

from __future__ import annotations

import itertools
import json
import re
from fractions import Fraction
from pathlib import Path
from typing import Sequence, Union

from .polyring import MultiPoly, ParseError, Ring, _gaussian_literal, parse
from .scalars import KIND_NONE, ConstMatrix, _check_rows, _common_kind, _over_den, as_fraction

PathLike = Union[str, Path]

_NON_ASCII_NUMBER = re.compile(r"[^\x00-\x7f]|_")


def parse_ring_header(line: str) -> Ring:
    body = line.strip()
    if not body.startswith("ring:"):
        raise ParseError("polynomial file must start with a 'ring:' header line")
    fields = {}
    for chunk in body[len("ring:") :].split():
        if "=" not in chunk:
            raise ParseError(f"malformed ring header field {chunk!r}")
        key, value = chunk.split("=", 1)
        fields[key] = value
    if "vars" not in fields:
        raise ParseError("ring header needs a vars=... field")
    names = tuple(v for v in fields["vars"].split(",") if v)
    if "weights" in fields:
        try:
            weights = tuple(int(_ascii(w)) for w in fields["weights"].split(",") if w)
        except ValueError as err:
            raise ParseError(f"bad weights in ring header: {err}") from None
    else:
        weights = (1,) * len(names)
    gaussian = fields.get("gaussian", "false").lower()
    if gaussian not in ("true", "false"):
        raise ParseError("gaussian must be true or false")
    try:
        return Ring(names, weights, gaussian == "true")
    except ValueError as err:
        raise ParseError(str(err)) from None


def parse_poly_text(text: str) -> MultiPoly:
    lines = text.strip().splitlines()
    if not lines:
        raise ParseError("empty polynomial file")
    ring = parse_ring_header(lines[0])
    body = " ".join(lines[1:]).strip()
    if not body:
        raise ParseError("polynomial file has no expression after the header")
    return parse(body, ring)


def load_poly_file(path: PathLike) -> MultiPoly:
    return parse_poly_text(Path(path).read_text(encoding="ascii"))


def dump_poly_text(poly: MultiPoly) -> str:
    ring = poly.ring
    header = (
        f"ring: vars={','.join(ring.variables)}"
        f" weights={','.join(str(w) for w in ring.weights)}"
        f" gaussian={'true' if ring.gaussian else 'false'}"
    )
    return f"{header}\n{poly}\n"


def parse_squares_text(text: str) -> list[MultiPoly]:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if len(lines) < 2:
        raise ParseError("squares file needs a ring header and at least one polynomial")
    ring = parse_ring_header(lines[0])
    return [parse(ln, ring) for ln in lines[1:]]


def load_squares_file(path: PathLike) -> list[MultiPoly]:
    return parse_squares_text(Path(path).read_text(encoding="ascii"))


def _ascii(number: str) -> str:
    """``number`` if it holds only ASCII characters and no '_', which int()
    and Fraction() would take as a digit or a digit separator."""
    bad = _NON_ASCII_NUMBER.search(number)
    if bad:
        raise ValueError(f"unexpected character {bad.group()!r} in {number!r}")
    return number


def parse_point(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(as_fraction(_ascii(c)) for c in text.split(","))
    except (ValueError, ZeroDivisionError) as err:
        raise ParseError(f"bad point {text!r}: {err}") from None


def pencil_to_json_dict(
    matrices: Sequence[ConstMatrix], variables: Sequence[str], gaussian: bool
) -> dict:
    if len(matrices) != len(variables):
        raise ValueError("one matrix per variable required")
    return {
        "vars": list(variables),
        "gaussian": gaussian,
        "kind": _common_kind(matrices),
        "matrices": [m.to_rows() for m in matrices],
    }


def _cell_parts(text: str, ring: Ring) -> tuple:
    """(re, im) of a pencil cell in the empty ``ring``: ints for a Gaussian
    integer literal (:func:`~hypercert.polyring._gaussian_literal`), else
    Fractions of the int form of the constant that ``parse`` reads."""
    literal = _gaussian_literal(text, ring.gaussian)
    if literal is not None:
        return literal
    value = parse(text, ring)
    return tuple(Fraction(part, value.den) for part in value.nums.get((), (0, 0)))


def _json_field(data, key: str, what: str):
    """data[key], where data must be a JSON object that has the key."""
    if not isinstance(data, dict):
        raise ParseError(f"{what} must be a JSON object")
    if key not in data:
        raise ParseError(f"{what} has no {key!r} field")
    return data[key]


def _json_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{where} must be a list, not {json.dumps(value)}")
    return value


def _json_flag(data: dict, key: str, where: str) -> bool:
    """data[key] as a JSON boolean, False if absent (a string "false" is
    not read as true)."""
    value = data.get(key, False)
    if not isinstance(value, bool):
        raise ParseError(f"{where} must be true or false, not {json.dumps(value)}")
    return value


def _json_strings(value, where: str, depth: int = 1, path: tuple[int, ...] = ()) -> list:
    """A JSON list of strings, or with ``depth`` > 1 a list of such lists
    (rows of a matrix, blocks of a pencil); the error names the first bad
    item by its index path below ``where``, formatted only when raised."""
    if not isinstance(value, list):
        raise ParseError(f"{where}{''.join(f'[{k}]' for k in path)} must be a list, not {json.dumps(value)}")
    for k, item in enumerate(value):
        if depth > 1:
            _json_strings(item, where, depth - 1, (*path, k))
        elif not isinstance(item, str):
            raise ParseError(f"{where}{''.join(f'[{i}]' for i in (*path, k))} must be a string, not {json.dumps(item)}")
    return value


def pencil_from_json(data: Union[str, dict]) -> tuple[list[ConstMatrix], Ring]:
    if isinstance(data, str):
        data = json.loads(data)
    names = tuple(_json_strings(_json_field(data, "vars", "pencil"), "vars"))
    blocks = _json_strings(_json_field(data, "matrices", "pencil"), "matrices", depth=3)
    gaussian = _json_flag(data, "gaussian", "gaussian")
    ring, cell_ring = Ring.standard(names, gaussian), Ring((), (), gaussian)
    kind = data.get("kind", KIND_NONE)
    parts: dict[str, tuple] = {}  # each distinct text is read once, into (re, im)
    slices = []
    for block in blocks:
        pairs = [parts.get(t) or parts.setdefault(t, _cell_parts(t, cell_ring)) for t in itertools.chain(*block)]
        _check_rows(block, kind)  # after the block's cells, so that a bad cell is named first
        cells = {k: re for k, (re, _) in enumerate(pairs) if re}
        if gaussian:  # a real ring refuses an imaginary part
            cells.update((len(pairs) + k, im) for k, (_, im) in enumerate(pairs) if im)
        slices.append((len(block), cells))
    if len(slices) != len(names):
        raise ParseError("pencil needs one constant matrix per variable")
    # The parts, ints or the grammar's Fractions, scaled by the lcm of their
    # denominators; each slice's zip stops at its last cell, so one iterator serves all.
    den, nums = _over_den([v for _, cells in slices for v in cells.values()])
    nums = iter(nums)
    return [ConstMatrix._of_ints(m, den, dict(zip(cells, nums)), kind) for m, cells in slices], ring
