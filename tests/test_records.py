"""The frozen records: immutable, hashable, and equal exactly when their
fields are.  Each case builds a record from a value, twice from one value
and once from another."""

from fractions import Fraction

import pytest

from hypercert.detrep import CheckFailure
from hypercert.fixtures import CheckOutcome
from hypercert.hyperbolicity import STATUS_REFUTED, SampledVerdict, Witness
from hypercert.polyring import Ring, UniPoly


def witness(v):
    return Witness((Fraction(v), Fraction(1)), UniPoly([v, 0, 1]), "restriction-not-real-rooted")


RECORDS = {
    "Ring": (lambda v: Ring(("x0", "x1"), (1, v), True), ("variables", "weights", "gaussian")),
    "CheckFailure": (lambda v: CheckFailure("kind", f"entry ({v}, 0)"), ("name", "witness")),
    "Witness": (witness, ("v", "restricted", "reason")),
    "SampledVerdict": (lambda v: SampledVerdict(STATUS_REFUTED, 3, 7, witness(v)), ("status", "samples_run", "seed", "witness")),
    "CheckOutcome": (lambda v: CheckOutcome("hermitian", True, f"entry ({v}, 0)"), ("name", "ok", "detail")),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_frozen_record(name):
    make, fields = RECORDS[name]
    a, b, c = make(2), make(2), make(3)
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != c and len({a, b, c}) == 2
    assert repr(a).startswith(f"{name}({fields[0]}=")
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(c, field))
    assert a == b
