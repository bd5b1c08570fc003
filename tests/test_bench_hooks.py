"""The benchmark's tracer wraps hypercert functions by (module, name).

Building a ``perfbench.tracer.Tracer`` resolves every hooked name and
installs nothing, so a rename or deletion of a hooked function (``poly_det``,
``const_det``, ``_isolate_squarefree``, ``PolyMatrix.matmul``, ...) fails
here instead of only in a traced benchmark run.  Installed around one small
run of each command, the tracer takes its notes (a restriction's degree, a
chain's length, a matrix's size, ...) from what the hooked functions are
given and return, so a change of those shapes fails here too.
"""

import importlib
import sys
from pathlib import Path

import pytest

from hypercert import cli
from test_dead_code import HOOK_ONLY

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


def test_each_noted_layer_records_its_notes(tracer_module, tmp_path, capsys):
    ring = "ring: vars=x0,x1,x2 weights=1,1,1 gaussian=false\n"
    (tmp_path / "q.txt").write_text(ring + "x0^2 - x1^2 - x2^2\n", encoding="ascii")
    (tmp_path / "g.txt").write_text(ring + "2*x0\n", encoding="ascii")
    (tmp_path / "s.txt").write_text("ring: vars=x1,x2 weights=1,1 gaussian=false\n2*x1\n2*x2\n", encoding="ascii")
    q, g, s = (str(tmp_path / name) for name in ("q.txt", "g.txt", "s.txt"))
    runs = [
        ["check-hyperbolic", "--poly", q, "--dir", "1,0,0", "--samples", "5"],
        ["check-interlacer", "--poly", q, "--interlacer", g, "--dir", "1,0,0", "--samples", "5"],
        ["quadratic-detrep", "--poly", q, "--dir", "1,0,0"],
        ["sos-to-detrep", "--squares", s],
        ["fixtures", "run", "--id", "F4"],
    ]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        codes = [cli.main(argv) for argv in runs]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0] * len(runs)
    layers = tracer.summary()
    # Every noted layer but the hook-only code, which nothing calls at run time.
    noted = {name for module, attr, name, note in tracer_module.WRAPPED if note and (module, attr) not in HOOK_ONLY}
    assert {name for name in noted if layers[name]["calls"]} == noted
    for name in noted:
        assert sum(count for count, _ in layers[name]["by_note"].values()) == layers[name]["calls"], name
