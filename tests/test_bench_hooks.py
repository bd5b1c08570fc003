"""The benchmark's tracer wraps hypercert functions by (module, name).

Building a ``perfbench.tracer.Tracer`` resolves every hooked name and
installs nothing, so a rename or deletion of a hooked function (``poly_det``,
``const_det``, ``_isolate_squarefree``, ``PolyMatrix.matmul``, ...) fails
here instead of only in a traced benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer_module():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.modules.pop("tracer", None)


def test_every_hooked_name_resolves_and_nothing_is_installed(tracer_module):
    modules = {m: importlib.import_module(f"hypercert.{m}") for m, *_ in tracer_module.WRAPPED}

    def snapshot():
        state = [dict(vars(module)) for module in modules.values()]
        for mod_name, attr, *_ in tracer_module.WRAPPED:
            if "." in attr:
                cls_name, meth = attr.split(".")
                state.append(vars(getattr(modules[mod_name], cls_name))[meth])
        return state

    before = snapshot()
    tracer_module.Tracer()  # raises if a hooked (module, name) is gone
    assert snapshot() == before
