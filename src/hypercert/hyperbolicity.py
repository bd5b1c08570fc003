"""Hyperbolicity and interlacer testing on sampled rational lines.

A homogeneous h is hyperbolic with respect to e when every line restriction
t -> h(t*e - v) is real-rooted.  Sampling integer directions v can only ever
refute (exactly, with a re-checkable witness line) or report
"no-counterexample".  Certification is ``detrep.verify_pencil``: a definite
pencil with det = c*h^r upgrades that to a theorem, since the minimal
polynomial of a hermitian matrix has only real zeros.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .polyring import MultiPoly, UniPoly, restrict_to_line
from .realroots import NotRealRootedError, interlaces_univariate, is_real_rooted
from .scalars import DEFAULT_BOX, DEFAULT_SAMPLES, RationalLike, as_fraction

STATUS_NO_COUNTEREXAMPLE = "no-counterexample"
STATUS_REFUTED = "refuted"

REASON_NOT_REAL_ROOTED = "restriction-not-real-rooted"
REASON_INTERLACER_NOT_REAL_ROOTED = "interlacer-restriction-not-real-rooted"
REASON_INTERLACING_FAILS = "interlacing-fails"


class Witness(NamedTuple):
    """A refutation: the sampled line v, the restriction of the subject
    polynomial along it, and what failed there."""

    v: tuple[Fraction, ...]
    restricted: UniPoly
    reason: str

    def to_json_dict(self) -> dict:
        return {
            "v": [str(c) for c in self.v],
            "restricted_poly": self.restricted.format("t"),
            "reason": self.reason,
        }


class SampledVerdict(NamedTuple):
    status: str
    samples_run: int
    seed: int
    witness: Optional[Witness] = None

    def refuted(self) -> bool:
        return self.status == STATUS_REFUTED

    def to_json_dict(self) -> dict:
        out = {"status": self.status, "samples": self.samples_run, "seed": self.seed}
        if self.witness is not None:
            out["witness"] = self.witness.to_json_dict()
        return out


def sample_direction(seed: int, index: int, arity: int, box: int) -> tuple[int, ...]:
    """Deterministic integer point in [-box, box]^arity, independent of
    sample order: base 2*box+1 digits of SHA-256 digests.

    One 256-bit digest holds k full digits, k the largest count with
    (2*box+1)^k <= 2^256 (at least 1).  The first k coordinates come from
    SHA-256(seed:index), each further k from SHA-256(seed:index:block) for
    block = 1, 2, ...  A digest that gives m digits is used only below
    (2*box+1)^m * floor(2^256 / (2*box+1)^m), where its last m digits are
    uniform; otherwise SHA-256(label/1), SHA-256(label/2), ... replace it
    (no label of a first digest contains "/").
    """
    base = 2 * box + 1
    per_block = _digits_per_digest(base)
    coords: list[int] = []
    block = 0
    while len(coords) < arity:
        label = f"{seed}:{index}" if block == 0 else f"{seed}:{index}:{block}"
        take = min(per_block, arity - len(coords))
        span = base**take
        limit = (1 << 256) // span * span
        value, retry = _digest(label), 0
        while value >= limit:
            retry += 1
            value = _digest(f"{label}/{retry}")
        for _ in range(take):
            value, digit = divmod(value, base)
            coords.append(digit - box)
        block += 1
    return tuple(coords)


def _digest(label: str) -> int:
    return int.from_bytes(hashlib.sha256(label.encode("ascii")).digest(), "big")


@lru_cache(maxsize=16)
def _digits_per_digest(base: int) -> int:
    k, span = 0, base
    while span <= 1 << 256:
        k += 1
        span *= base
    return max(k, 1)


def _check_inputs(h: MultiPoly, e: Sequence[RationalLike], name: str = "h") -> list[Fraction]:
    ring = h.ring
    if any(w != 1 for w in ring.weights):
        raise ValueError("sampling needs an unweighted ring")
    if not h.is_real():
        raise ValueError(f"{name} must have real coefficients")
    if h.is_zero() or not h.is_weighted_homogeneous():
        raise ValueError(f"{name} must be nonzero and homogeneous")
    point = [as_fraction(c) for c in e]
    if len(point) != ring.arity:
        raise ValueError("direction arity mismatch")
    if not h.eval_rational(point):
        raise ValueError(f"{name}(e) = 0: hyperbolicity requires {name}(e) != 0")
    return point


def _check_sampling(samples: int, box: int) -> None:
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}: fewer test no line")
    if box < 1:
        raise ValueError(f"box must be at least 1, got {box}: a smaller box samples no line")
    if box >= 1 << 255:  # then 2*box + 1 > 2^256, and no digest could hold one coordinate
        raise ValueError(f"box must be at most 2^255 - 1, got {box}: one coordinate must fit a 256-bit digest")


def is_hyperbolic_sampled(
    h: MultiPoly,
    e: Sequence[RationalLike],
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    box: int = DEFAULT_BOX,
) -> SampledVerdict:
    """Test real-rootedness of h(t*e - v) over sampled integer lines v.

    The first failing line yields status "refuted" with an exact witness;
    otherwise "no-counterexample" (the universal quantifier over all real v
    is not decided by sampling).  The sample v = e is skipped.  ``samples``
    must be at least 1 and ``box`` in [1, 2^255 - 1]: fewer samples test no
    line, box 0 would draw only v = 0, and a coordinate of a larger box
    does not fit one SHA-256 digest (:func:`sample_direction`).
    """
    _check_sampling(samples, box)
    return _sampled(h, None, _check_inputs(h, e), samples, seed, box)


def interlaces_sampled(
    g: MultiPoly,
    h: MultiPoly,
    e: Sequence[RationalLike],
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    box: int = DEFAULT_BOX,
) -> SampledVerdict:
    """Test the weak interlacing chain of g against h over sampled lines.

    Along each line the roots of the degree d restriction of h and the
    degree d-1 restriction of g must form the weak alternating chain.
    ``samples`` and ``box`` are bounded as for :func:`is_hyperbolic_sampled`.
    """
    _check_sampling(samples, box)
    point = _check_inputs(h, e)
    _check_inputs(g, e, name="g")
    if g.ring != h.ring:
        raise ValueError("g and h must share one ring")
    if g.weighted_degree() != h.weighted_degree() - 1:
        raise ValueError("deg(g) must be deg(h) - 1")
    return _sampled(h, g, point, samples, seed, box)


def _sampled(h: MultiPoly, g: Optional[MultiPoly], point: list, samples: int, seed: int, box: int) -> SampledVerdict:
    """The one sampling loop: each drawn line v but v = e, in turn, until
    h's restriction has a nonreal root or, given an interlacer g, the two
    restrictions break the chain."""
    e = tuple([c.numerator for c in point]) if all(c.denominator == 1 for c in point) else None  # else no v is e
    run = 0
    for index in range(samples):
        v = sample_direction(seed, index, h.ring.arity, box)
        if v == e:
            continue
        run += 1
        restricted = restrict_to_line(h, point, v)
        try:
            if g is None:
                reason = None if is_real_rooted(restricted) else REASON_NOT_REAL_ROOTED
            else:
                interlaced = interlaces_univariate(restricted, restrict_to_line(g, point, v))
                reason = None if interlaced else REASON_INTERLACING_FAILS
        except NotRealRootedError as err:
            reason = REASON_NOT_REAL_ROOTED if err.which == "f" else REASON_INTERLACER_NOT_REAL_ROOTED
        if reason is not None:
            return SampledVerdict(STATUS_REFUTED, run, seed, Witness(tuple(map(Fraction, v)), restricted, reason))
    return SampledVerdict(STATUS_NO_COUNTEREXAMPLE, run, seed)
