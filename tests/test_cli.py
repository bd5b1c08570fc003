"""CLI dispatch: exit codes, wire formats, report stability."""

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hypercert import clifford, detrep, hyperbolicity, scalars
from hypercert.cli import EXIT_OK, EXIT_REFUTED, EXIT_USAGE, build_parser, main
from hypercert.detrep import PolyMatrix, const_det
from hypercert.polyring import Ring, parse
from hypercert.scalars import pencil_value
from hypercert.wire import load_poly_file, pencil_from_json, pencil_to_json_dict
from oracles import eval_reference
from test_hyperbolicity import RAISED_REFUTATIONS, assert_raised_refutation

QUADRIC = "ring: vars=x0,x1,x2 weights=1,1,1 gaussian=false\nx0^2 - x1^2 - x2^2\n"
SPHERE = "ring: vars=x0,x1,x2 weights=1,1,1 gaussian=false\nx0^2 + x1^2 + x2^2\n"
SQUARES = "ring: vars=x1,x2 weights=1,1 gaussian=false\n2*x1\n2*x2\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (
        ("q.txt", QUADRIC),
        ("sphere.txt", SPHERE),
        ("squares.txt", SQUARES),
    ):
        p = tmp_path / name
        p.write_text(text, encoding="ascii")
        paths[name] = str(p)
    paths["dir"] = str(tmp_path)
    return paths


class TestCheckHyperbolic:
    def test_verified_exit_zero(self, files, capsys):
        code = main(
            ["check-hyperbolic", "--poly", files["q.txt"], "--dir", "1,0,0",
             "--samples", "100", "--seed", "7"]
        )
        assert code == EXIT_OK
        assert "no-counterexample" in capsys.readouterr().out

    def test_refuted_exit_one_with_witness(self, files, capsys):
        code = main(
            ["check-hyperbolic", "--poly", files["sphere.txt"], "--dir", "1,0,0",
             "--samples", "50", "--seed", "7", "--json"]
        )
        assert code == EXIT_REFUTED
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "refuted"
        assert set(payload["witness"]) == {"v", "restricted_poly", "reason"}

    def test_missing_file_exit_64(self, files, capsys):
        code = main(["check-hyperbolic", "--poly", files["dir"] + "/nope.txt", "--dir", "1,0,0"])
        assert code == EXIT_USAGE

    def test_malformed_poly_exit_64(self, files, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("ring: vars=x0 weights=1 gaussian=false\nx0 +\n", encoding="ascii")
        code = main(["check-hyperbolic", "--poly", str(bad), "--dir", "1"])
        assert code == EXIT_USAGE

    def test_deeply_nested_poly_exit_64(self, tmp_path, capsys):
        deep = tmp_path / "deep.txt"
        deep.write_text("ring: vars=x0,x1 weights=1,1 gaussian=false\n" + "(" * 3000 + "x0" + ")" * 3000)
        code = main(["check-hyperbolic", "--poly", str(deep), "--dir", "1,0"])
        assert code == EXIT_USAGE
        assert "input error: expression is nested too deeply" in capsys.readouterr().err

    def test_bad_flag_exit_64(self, files):
        assert main(["check-hyperbolic", "--nope"]) == EXIT_USAGE

    @pytest.mark.parametrize("box", ["0", "-3"])
    def test_box_below_one_exit_64(self, files, capsys, box):
        # box 0 would sample only v = 0 and report no counterexample on the
        # sphere without testing a single line.
        code = main(
            ["check-hyperbolic", "--poly", files["sphere.txt"], "--dir", "1,0,0",
             "--samples", "50", "--box", box]
        )
        assert code == EXIT_USAGE
        assert "box must be at least 1" in capsys.readouterr().err

    def test_box_above_2_pow_255_minus_1_exit_64(self, files, capsys):
        # A 77-digit box: 2*box + 1 > 2^256, whose rejection loop never ended.
        argv = ["check-hyperbolic", "--poly", files["q.txt"], "--dir", "1,0,0", "--samples", "5", "--json"]
        assert main(argv + ["--box", str((1 << 255) - 1)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["samples"] == 5
        assert main(argv + ["--box", str(1 << 255)]) == EXIT_USAGE
        assert "box must be at most 2^255 - 1" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["0", "-2"])
    def test_samples_below_one_exit_64(self, files, capsys, samples):
        # No sampled line would be tested, yet the sphere was reported as
        # "no-counterexample (0 lines)" with exit 0.
        code = main(
            ["check-hyperbolic", "--poly", files["sphere.txt"], "--dir", "1,0,0",
             "--samples", samples]
        )
        assert code == EXIT_USAGE
        assert "samples must be at least 1" in capsys.readouterr().err


class TestLongNumbers:
    """A report prints exact values of any length; the int-to-str digit
    limit is lifted only while it is serialized, so parsing keeps it."""

    def test_refutation_prints_a_long_witness(self, tmp_path, capsys):
        poly = tmp_path / "long.txt"
        poly.write_text("ring: vars=x0,x1,x2 weights=1,1,1 gaussian=false\nx0^2 + x1^2 + 10^2500*10^2500*x2^2\n")
        limit = sys.get_int_max_str_digits()
        for as_json in ([], ["--json"]):
            code = main(["check-hyperbolic", "--poly", str(poly), "--dir", "1,0,0", "--samples", "5"] + as_json)
            captured = capsys.readouterr()
            assert (code, captured.err) == (EXIT_REFUTED, "")
            assert sys.get_int_max_str_digits() == limit
        payload = json.loads(captured.out)
        assert payload["status"] == "refuted"
        assert len(payload["witness"]["restricted_poly"]) > 5000

    def test_a_literal_power_at_the_limit_and_one_past_it(self, tmp_path, capsys):
        # 3 has two bits: 3^n is refused once 2*n passes the bit length of
        # the longest literal int() converts, before the power is computed.
        n = (10 ** sys.get_int_max_str_digits() - 1).bit_length() // 2
        poly = tmp_path / "power.txt"
        argv = ["check-hyperbolic", "--poly", str(poly), "--dir", "1,0", "--samples", "3", "--json"]
        poly.write_text(f"ring: vars=x0,x1 weights=1,1 gaussian=false\nx0 + 3^{n}*x1\n")
        assert main(argv) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["status"] == "no-counterexample"
        poly.write_text(f"ring: vars=x0,x1 weights=1,1 gaussian=false\nx0 + 3^{n + 1}*x1\n")
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"input error: power of about {2 * n + 2} bits is too large at position 5\n")

    def test_a_power_of_a_sum_at_the_limit_and_one_past_it(self, tmp_path, capsys):
        # 1 + 2^(b-1), the summed coefficients of the base, has b bits: its
        # cube is at most the bit length of the longest literal int()
        # converts, and its fourth power is refused before it is computed.
        b = (10 ** sys.get_int_max_str_digits() - 1).bit_length() // 3
        poly = tmp_path / "power.txt"
        argv = ["check-hyperbolic", "--poly", str(poly), "--dir", "1,0", "--samples", "3", "--json"]
        poly.write_text(f"ring: vars=x0,x1 weights=1,1 gaussian=false\n(x0 + 2^{b - 1}*x1)^3\n")
        assert main(argv) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["status"] == "no-counterexample"
        poly.write_text(f"ring: vars=x0,x1 weights=1,1 gaussian=false\n(x0 + 2^{b - 1}*x1)^4\n")
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"input error: power of about {4 * b} bits is too large at position 0\n")

    def test_a_power_of_a_sum_of_many_terms_is_an_input_error(self, tmp_path, capsys):
        poly = tmp_path / "power.txt"
        argv = ["check-hyperbolic", "--poly", str(poly), "--dir", "1,0,0", "--samples", "3", "--json"]
        poly.write_text("ring: vars=x0,x1,x2 weights=1,1,1 gaussian=false\n(x0+x1+x2)^43\n")
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        poly.write_text("ring: vars=x0,x1,x2 weights=1,1,1 gaussian=false\n(x0+x1+x2)^200\n")
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "input error: power of up to 20301 terms is too large at position 0\n")

    def test_a_product_of_two_large_sums_is_an_input_error(self, tmp_path, capsys):
        poly = tmp_path / "product.txt"
        argv = ["check-hyperbolic", "--poly", str(poly), "--dir", "1,0,0", "--samples", "3", "--json"]
        poly.write_text("ring: vars=x0,x1,x2 weights=1,1,1 gaussian=false\n(x0+x1+x2)^43*(x0+x1+x2)^3\n")
        assert main(argv) == EXIT_OK  # 990 by 10 pairs
        capsys.readouterr()
        poly.write_text("ring: vars=x0,x1,x2 weights=1,1,1 gaussian=false\n(x0+x1+x2)^43*(x0+x1+x2)^43\n")
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "input error: product of 990 by 990 terms is too large at position 14\n")

    def test_a_long_literal_is_still_an_input_error(self, tmp_path, capsys):
        poly = tmp_path / "literal.txt"
        poly.write_text("ring: vars=x0 weights=1 gaussian=false\n" + "7" * 5000 + "*x0^2\n")
        assert main(["check-hyperbolic", "--poly", str(poly), "--dir", "1", "--json"]) == EXIT_USAGE
        assert "integer literal of 5000 digits is too long" in capsys.readouterr().err


class TestCheckInterlacer:
    def test_directional_derivative(self, files, tmp_path, capsys):
        g = tmp_path / "g.txt"
        g.write_text(
            "ring: vars=x0,x1,x2 weights=1,1,1 gaussian=false\n2*x0\n", encoding="ascii"
        )
        code = main(
            ["check-interlacer", "--poly", files["q.txt"], "--interlacer", str(g),
             "--dir", "1,0,0", "--samples", "50", "--seed", "3"]
        )
        assert code == EXIT_OK

    def test_box_below_one_exit_64(self, files, tmp_path, capsys):
        g = tmp_path / "g.txt"
        g.write_text(
            "ring: vars=x0,x1,x2 weights=1,1,1 gaussian=false\n2*x0\n", encoding="ascii"
        )
        code = main(
            ["check-interlacer", "--poly", files["q.txt"], "--interlacer", str(g),
             "--dir", "1,0,0", "--samples", "50", "--box", "0"]
        )
        assert code == EXIT_USAGE
        assert "box must be at least 1" in capsys.readouterr().err

    def test_box_above_2_pow_255_minus_1_exit_64(self, files, tmp_path, capsys):
        g = tmp_path / "g.txt"
        g.write_text("ring: vars=x0,x1,x2 weights=1,1,1 gaussian=false\n2*x0\n", encoding="ascii")
        argv = ["check-interlacer", "--poly", files["q.txt"], "--interlacer", str(g), "--dir", "1,0,0", "--samples", "5"]
        assert main(argv + ["--box", str((1 << 255) - 1)]) == EXIT_OK
        assert main(argv + ["--box", str(1 << 255)]) == EXIT_USAGE
        assert "box must be at most 2^255 - 1" in capsys.readouterr().err

    def test_samples_below_one_exit_64(self, files, tmp_path, capsys):
        g = tmp_path / "g.txt"
        g.write_text(
            "ring: vars=x0,x1,x2 weights=1,1,1 gaussian=false\n2*x0\n", encoding="ascii"
        )
        code = main(
            ["check-interlacer", "--poly", files["q.txt"], "--interlacer", str(g),
             "--dir", "1,0,0", "--samples", "0"]
        )
        assert code == EXIT_USAGE
        assert "samples must be at least 1" in capsys.readouterr().err


class TestRaisedRefutations:
    @pytest.mark.parametrize("case", RAISED_REFUTATIONS)
    def test_check_interlacer_exits_1(self, tmp_path, capsys, case):
        h, g, _, _ = RAISED_REFUTATIONS[case]
        names = ["x0", "x1", "x2"]
        argv = ["check-interlacer", "--poly", _write_poly(tmp_path / "h.txt", names, h),
                "--interlacer", _write_poly(tmp_path / "g.txt", names, g), "--dir", "1,0,0", "--json"]
        assert main(argv) == EXIT_REFUTED
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "refuted" and payload["seed"] == 0
        assert_raised_refutation(case, payload["witness"])


class TestRestrictionCallCount:
    """The benchmark traces ``restrict_to_line`` under the name it has in
    ``hyperbolicity``: each tested line must go through that name, once for
    h and once more for an interlacer."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        restrict = hyperbolicity.restrict_to_line

        def counting(h, e, v):
            calls.append(v)
            return restrict(h, e, v)

        monkeypatch.setattr(hyperbolicity, "restrict_to_line", counting)
        return calls

    @pytest.mark.parametrize("poly, code", [("q.txt", EXIT_OK), ("sphere.txt", EXIT_REFUTED)])
    def test_check_hyperbolic(self, files, capsys, calls, poly, code):
        assert main(
            ["check-hyperbolic", "--poly", files[poly], "--dir", "1,0,0",
             "--samples", "40", "--seed", "7", "--json"]
        ) == code
        assert len(calls) == json.loads(capsys.readouterr().out)["samples"]

    @pytest.mark.parametrize("interlacer, code", [("2*x0", EXIT_OK), ("x0 + 5*x1", EXIT_REFUTED)])
    def test_check_interlacer(self, files, tmp_path, capsys, calls, interlacer, code):
        g = tmp_path / "g.txt"
        g.write_text(f"ring: vars=x0,x1,x2 weights=1,1,1 gaussian=false\n{interlacer}\n", encoding="ascii")
        assert main(
            ["check-interlacer", "--poly", files["q.txt"], "--interlacer", str(g),
             "--dir", "1,0,0", "--samples", "40", "--seed", "3", "--json"]
        ) == code
        assert len(calls) == 2 * json.loads(capsys.readouterr().out)["samples"]


class TestNoFractionPerLine:
    """A sampled line is decided in ints, from its Taylor table to the last
    Sturm member: on the same integer h and e, each command forms as many
    Fractions at 40 samples as at 10 (parsing, the check at e and the
    report form a fixed number)."""

    # Three linear forms positive at e = (1, 0, 0), and h's derivative along e.
    CUBIC = "ring: vars=x0,x1,x2 weights=1,1,1 gaussian=false\n(x0 + x1)*(x0 - x2)*(2*x0 + x1 + 3*x2)\n"
    DERIVATIVE = ("ring: vars=x0,x1,x2 weights=1,1,1 gaussian=false\n"
                  "(x0 - x2)*(2*x0 + x1 + 3*x2) + (x0 + x1)*(2*x0 + x1 + 3*x2) + 2*(x0 + x1)*(x0 - x2)\n")

    @staticmethod
    def fractions_formed(monkeypatch, capsys, argv, samples):
        new, count = Fraction.__new__, 0

        def counting(cls, *args, **kwargs):
            nonlocal count
            count += 1
            return new(cls, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(Fraction, "__new__", staticmethod(counting))
            code = main(argv + ["--samples", str(samples), "--seed", "11", "--json"])
        assert code == EXIT_OK and json.loads(capsys.readouterr().out)["samples"] == samples
        return count

    @pytest.mark.parametrize("command", ["check-hyperbolic", "check-interlacer"])
    def test_fractions_do_not_grow_with_the_samples(self, tmp_path, monkeypatch, capsys, command):
        (tmp_path / "h.txt").write_text(self.CUBIC, encoding="ascii")
        (tmp_path / "g.txt").write_text(self.DERIVATIVE, encoding="ascii")
        argv = [command, "--poly", str(tmp_path / "h.txt"), "--dir", "1,0,0"]
        if command == "check-interlacer":
            argv += ["--interlacer", str(tmp_path / "g.txt")]
        counts = [self.fractions_formed(monkeypatch, capsys, argv, samples) for samples in (10, 40)]
        assert counts[0] == counts[1]


class TestVerifyDetrep:
    def test_pipeline_roundtrip(self, files, tmp_path, capsys):
        out = tmp_path / "pencil.json"
        code = main(
            ["quadratic-detrep", "--poly", files["q.txt"], "--dir", "1,0,0",
             "--out", str(out), "--json"]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["r"] == 2  # two branch squares: the 4x4 Hurwitz-Radon pencil
        assert payload["c"] == "16"
        assert "coordinate_map" in payload
        code = main(
            ["verify-detrep", "--matrix", str(out), "--poly", files["q.txt"],
             "--power", "2", "--dir", "1,0,0", "--up-to-scalar", "--json"]
        )
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["scalar"] == "16"

    def test_wrong_power_exit_64(self, files, tmp_path, capsys):
        out = tmp_path / "pencil.json"
        main(["quadratic-detrep", "--poly", files["q.txt"], "--dir", "1,0,0", "--out", str(out)])
        capsys.readouterr()
        code = main(
            ["verify-detrep", "--matrix", str(out), "--poly", files["q.txt"],
             "--power", "3", "--dir", "1,0,0"]
        )
        assert code == EXIT_USAGE  # size/degree inconsistency is an input error

    def test_exact_scalar_mode_fails_on_scaled(self, files, tmp_path, capsys):
        out = tmp_path / "pencil.json"
        main(["quadratic-detrep", "--poly", files["q.txt"], "--dir", "1,0,0", "--out", str(out)])
        capsys.readouterr()
        code = main(
            ["verify-detrep", "--matrix", str(out), "--poly", files["q.txt"],
             "--power", "2", "--dir", "1,0,0"]
        )
        assert code == EXIT_REFUTED  # c = 16 != 1 without --up-to-scalar

    def test_negative_at_direction_certified(self, tmp_path, capsys):
        # h(e) = -1 < 0: the branch is -4*h and c = (-4)^4 = 256.  This
        # used to fail at stage 'verify' with "branch scalar -4 is not positive".
        h = tmp_path / "h.txt"
        h.write_text("ring: vars=x0,x1 weights=1,1 gaussian=false\n3*x1^2 - x0^2\n")
        out = tmp_path / "pencil.json"
        code = main(["quadratic-detrep", "--poly", str(h), "--dir", "1,0", "--out", str(out), "--json"])
        assert code == EXIT_OK, capsys.readouterr()
        payload = json.loads(capsys.readouterr().out)
        assert (payload["r"], payload["c"]) == (4, "256")
        code = main(
            ["verify-detrep", "--matrix", str(out), "--poly", str(h),
             "--power", "4", "--dir", "1,0", "--up-to-scalar", "--json"]
        )
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["scalar"] == "256"

    @pytest.mark.parametrize("power", ["0", "-1"])
    def test_power_below_one_exit_64(self, tmp_path, capsys, power):
        # Empty pencils and matrices: with r = 0 they used to "verify" any h.
        h = tmp_path / "h.txt"
        h.write_text("ring: vars=x0,x1,x2 weights=1,1,1 gaussian=false\nx0^2 + x1^2 + x2^2 + 5*x0*x1\n")
        pencil = tmp_path / "pencil.json"
        pencil.write_text(json.dumps({"vars": ["x0", "x1", "x2"], "kind": "symmetric", "matrices": [[], [], []]}))
        h_y = tmp_path / "h_y.txt"
        h_y.write_text("ring: vars=y,x0,x1 weights=1,1,1 gaussian=false\ny^2 + x0^2 + x1^2\n")
        matrix = tmp_path / "matrix.json"
        ring = {"vars": ["x0", "x1"], "weights": [1, 1], "gaussian": False}
        matrix.write_text(json.dumps({"ring": ring, "kind": "symmetric", "entries": []}))
        for argv in (
            ["--matrix", str(pencil), "--poly", str(h), "--dir", "1,0,0"],
            ["--matrix", str(matrix), "--poly", str(h_y), "--companion"],
        ):
            assert main(["verify-detrep", "--power", power, *argv]) == EXIT_USAGE
            assert "at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--dir", "1,0,0"], ["--up-to-scalar"]])
    def test_companion_refuses_pencil_flags_exit_64(self, capsys, flag):
        # The companion route checks no definiteness at e and accepts only
        # c = 1, so both flags are refused rather than ignored.
        data = Path(clifford.__file__).with_name("data")
        argv = ["verify-detrep", "--companion", "--matrix", str(data / "F3_matrix.json"),
                "--poly", str(data / "F3_h.txt")]
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        assert main(argv + flag) == EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: {flag[0]} does not apply to companion verification\n"

    @pytest.mark.parametrize("flag", [["--seed", "1"], ["--samples", "5"], ["--box", "3"], ["--pencil"]])
    def test_sampling_and_mode_flags_are_unknown_exit_64(self, files, tmp_path, capsys, flag):
        out = tmp_path / "pencil.json"
        main(["quadratic-detrep", "--poly", files["q.txt"], "--dir", "1,0,0", "--out", str(out)])
        capsys.readouterr()
        code = main(
            ["verify-detrep", "--matrix", str(out), "--poly", files["q.txt"],
             "--power", "4", "--dir", "1,0,0", "--up-to-scalar"] + flag
        )
        assert code == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["detrep-to-sos", "--matrix", "m.json", "--poly", "p.txt"],
            ["sos-to-detrep", "--squares", "s.txt"],
            ["quadratic-detrep", "--poly", "p.txt", "--dir", "1,0,0"],
            ["fixtures", "run"],
        ],
    )
    def test_commands_that_never_sample_take_no_seed(self, capsys, argv):
        assert main(argv + ["--seed", "1"]) == EXIT_USAGE
        assert "unrecognized arguments: --seed" in capsys.readouterr().err


def _write_pencil(path, names, slices, kind="symmetric", gaussian=False):
    path.write_text(json.dumps({"vars": names, "kind": kind, "gaussian": gaussian, "matrices": slices}))
    return str(path)


def _write_poly(path, names, text, gaussian=False):
    path.write_text(f"ring: vars={','.join(names)} gaussian={'true' if gaussian else 'false'}\n{text}\n")
    return str(path)


# x0*I + x1*diag(1, -1) + x2*[[0, 1], [1, 0]], whose determinant is
# x0^2 - x1^2 - x2^2 when the slices belong to x0, x1, x2 in this order.
QUADRIC_SLICES = [[["1", "0"], ["0", "1"]], [["1", "0"], ["0", "-1"]], [["0", "1"], ["1", "0"]]]


class TestVerifyDetrepVariables:
    """The pencil's variables must be h's, in h's order: slices are matched
    to h's variables by position."""

    def test_reordered_pencil_variables_exit_64(self, tmp_path, capsys):
        # Declared in x1, x0, x2, this pencil represents x1^2 - x0^2 - x2^2.
        pencil = _write_pencil(tmp_path / "p.json", ["x1", "x0", "x2"], QUADRIC_SLICES)
        for name, text in (("by-position.txt", "x0^2 - x1^2 - x2^2"), ("by-name.txt", "x1^2 - x0^2 - x2^2")):
            h = _write_poly(tmp_path / name, ["x0", "x1", "x2"], text)
            code = main(["verify-detrep", "--matrix", pencil, "--poly", h, "--dir", "1,0,0"])
            assert code == EXIT_USAGE
            err = capsys.readouterr().err
            assert "input error: pencil variables ['x1', 'x0', 'x2'] differ" in err
            assert "['x0', 'x1', 'x2']" in err
        # The same h over the pencil's own variable order verifies.
        h = _write_poly(tmp_path / "own.txt", ["x1", "x0", "x2"], "x1^2 - x0^2 - x2^2")
        assert main(["verify-detrep", "--matrix", pencil, "--poly", h, "--dir", "1,0,0"]) == EXIT_OK
        assert "ok: True" in capsys.readouterr().out

    def test_other_variable_names_exit_64(self, tmp_path, capsys):
        pencil = _write_pencil(tmp_path / "p.json", ["a", "b", "c"], QUADRIC_SLICES)
        h = _write_poly(tmp_path / "h.txt", ["x0", "x1", "x2"], "x0^2 - x1^2 - x2^2")
        assert main(["verify-detrep", "--matrix", pencil, "--poly", h, "--dir", "1,0,0"]) == EXIT_USAGE
        assert "pencil variables ['a', 'b', 'c'] differ" in capsys.readouterr().err

    def test_polymatrix_variables_exit_64(self, tmp_path, capsys):
        matrix = tmp_path / "m.json"
        ring = {"vars": ["x1", "x0", "x2"], "weights": [1, 1, 1], "gaussian": False}
        entries = [["x1 + x0", "x2"], ["x2", "x1 - x0"]]
        matrix.write_text(json.dumps({"ring": ring, "kind": "symmetric", "entries": entries}))
        h = _write_poly(tmp_path / "h.txt", ["x0", "x1", "x2"], "x0^2 - x1^2 - x2^2")
        assert main(["verify-detrep", "--matrix", str(matrix), "--poly", h, "--dir", "1,0,0"]) == EXIT_USAGE
        assert "pencil variables ['x1', 'x0', 'x2'] differ" in capsys.readouterr().err


PENCIL = {"vars": ["x0", "x1", "x2"], "kind": "symmetric", "gaussian": False, "matrices": QUADRIC_SLICES}
POLYMATRIX = {
    "ring": {"vars": ["x0", "x1", "x2"], "weights": [1, 1, 1], "gaussian": False},
    "kind": "symmetric",
    "entries": [["x0 + x1", "x2"], ["x2", "x0 - x1"]],
}


def _changed(data, path, value):
    """A copy of the JSON data with the item at ``path`` set to ``value``,
    or deleted if ``value`` is ``...``."""
    data = json.loads(json.dumps(data))
    node = data
    for k in path[:-1]:
        node = node[k]
    if value is ...:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return data


class TestMalformedMatrixJson:
    """A matrix file of the wrong shape is an input error (exit 64) that
    names the bad field or cell, not a traceback out of main."""

    CASES = [
        (_changed(PENCIL, ["matrices", 0, 0, 0], 1), "matrices[0][0][0] must be a string, not 1"),
        (_changed(PENCIL, ["matrices", 2, 1], "0"), 'matrices[2][1] must be a list, not "0"'),
        (_changed(PENCIL, ["matrices", 1], None), "matrices[1] must be a list, not null"),
        (_changed(PENCIL, ["matrices"], {"x0": []}), 'matrices must be a list, not {"x0": []}'),
        (_changed(PENCIL, ["vars"], ...), "pencil has no 'vars' field"),
        (_changed(PENCIL, ["vars"], "x0,x1,x2"), 'vars must be a list, not "x0,x1,x2"'),
        (_changed(PENCIL, ["vars", 1], 1), "vars[1] must be a string, not 1"),
        (_changed(PENCIL, ["gaussian"], "false"), 'gaussian must be true or false, not "false"'),
        (_changed(POLYMATRIX, ["ring", "gaussian"], 0), "ring.gaussian must be true or false, not 0"),
        (_changed(POLYMATRIX, ["ring"], ...), "polynomial matrix has no 'ring' field"),
        (_changed(POLYMATRIX, ["entries"], ...), "polynomial matrix has no 'entries' field"),
        (_changed(POLYMATRIX, ["ring"], ["x0", "x1", "x2"]), "ring must be a JSON object"),
        (_changed(PENCIL, ["matrices", 0, 1], ["0", None]), "matrices[0][1][1] must be a string, not null"),
        (_changed(POLYMATRIX, ["ring", "weights"], ...), "ring has no 'weights' field"),
        (_changed(POLYMATRIX, ["ring", "vars"], ...), "ring has no 'vars' field"),
        (_changed(POLYMATRIX, ["ring", "weights", 1], None), "ring.weights must be integers, not [1, null, 1]"),
        (_changed(POLYMATRIX, ["entries", 1, 0], 2), "entries[1][0] must be a string, not 2"),
        (_changed(POLYMATRIX, ["entries"], "x0"), 'entries must be a list, not "x0"'),
        ([["x0"]], "polynomial matrix must be a JSON object"),
        (5, "polynomial matrix must be a JSON object"),
    ]

    @pytest.mark.parametrize("data, message", CASES, ids=range(len(CASES)))
    def test_exit_64_names_the_field(self, files, tmp_path, capsys, data, message):
        matrix = tmp_path / "m.json"
        matrix.write_text(json.dumps(data))
        code = main(["verify-detrep", "--matrix", str(matrix), "--poly", files["q.txt"], "--dir", "1,0,0"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"input error: {message}\n"

    @pytest.mark.parametrize("command", ["verify-detrep", "detrep-to-sos"])
    def test_deeply_nested_json_exit_64(self, files, tmp_path, capsys, command):
        # json's decoder raises RecursionError here, which is no ValueError.
        matrix = tmp_path / "m.json"
        matrix.write_text("[" * 100_000 + "]" * 100_000)
        assert main([command, "--matrix", str(matrix), "--poly", files["q.txt"]]) == EXIT_USAGE
        assert capsys.readouterr().err == "input error: matrix JSON is nested too deeply\n"

    def test_well_formed_files_still_verify(self, files, tmp_path, capsys):
        for data in (PENCIL, POLYMATRIX):
            matrix = tmp_path / "m.json"
            matrix.write_text(json.dumps(data))
            assert main(["verify-detrep", "--matrix", str(matrix), "--poly", files["q.txt"], "--dir", "1,0,0"]) == EXIT_OK


class TestVerifyDetrepLatticeInputChecks:
    """The lattice route keeps the input checks of the polynomial route.

    h = (x0 + x1)(x0 + x2)(x0 + x1 + x2) is a cubic, so its pencils are
    decided by lattice evaluation; pencil_to_polymatrix, which the other
    routes build, is replaced by a tripwire."""

    FORMS = ([1, 1, 0], [1, 0, 1], [1, 1, 1])  # diag(forms) has det h

    @pytest.fixture
    def h(self, tmp_path, monkeypatch):
        def tripwire(*args):
            raise AssertionError("pencil_to_polymatrix called on the lattice route")

        monkeypatch.setattr(detrep, "pencil_to_polymatrix", tripwire)
        return _write_poly(tmp_path / "h.txt", ["x0", "x1", "x2"], "(x0 + x1)*(x0 + x2)*(x0 + x1 + x2)")

    def slices(self):
        return [
            [[str(form[k]) if i == j else "0" for j in range(3)] for i, form in enumerate(self.FORMS)]
            for k in range(3)
        ]

    def test_valid_pencil_takes_lattice(self, tmp_path, capsys, h):
        pencil = _write_pencil(tmp_path / "p.json", ["x0", "x1", "x2"], self.slices())
        assert main(["verify-detrep", "--matrix", pencil, "--poly", h, "--dir", "1,0,0", "--json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["notes"]["method"] == "lattice"

    def test_slices_of_different_sizes_exit_64(self, tmp_path, capsys, h):
        slices = self.slices()
        slices[2] = [["0", "0"], ["0", "1"]]
        pencil = _write_pencil(tmp_path / "p.json", ["x0", "x1", "x2"], slices)
        assert main(["verify-detrep", "--matrix", pencil, "--poly", h, "--dir", "1,0,0"]) == EXIT_USAGE
        assert "input error: pencil matrices must share one size" in capsys.readouterr().err

    def test_imaginary_entry_for_real_h_exit_64(self, tmp_path, capsys, h):
        slices = self.slices()
        slices[2][0][1], slices[2][1][0] = "i", "-i"
        pencil = _write_pencil(tmp_path / "p.json", ["x0", "x1", "x2"], slices, "hermitian", gaussian=True)
        assert main(["verify-detrep", "--matrix", pencil, "--poly", h, "--dir", "1,0,0"]) == EXIT_USAGE
        assert "input error: imaginary coefficient in a non-gaussian ring" in capsys.readouterr().err


class TestVerifyDetrepPointWitness:
    """A wrong pencil is refuted at the first lattice point where det(A(x))
    and c*h(x)^r differ, with both exact values."""

    def test_tampered_pencil_exit_1_with_point_witness(self, tmp_path, capsys):
        names = ["x0", "x1", "x2"]
        h = _write_poly(tmp_path / "h.txt", names, "(x0 + x1)*(x0 + x2)*(x0 + x1 + x2)")
        forms = ([1, 1, 0], [1, 0, 1], [1, 1, 1])
        slices = [[[str(f[k]) if i == j else "0" for j, f in enumerate(forms)] for i in range(3)] for k in range(3)]
        slices[1][0][0] = "3"  # det = (x0 + 3*x1)(x0 + x2)(x0 + x1 + x2)
        pencil = _write_pencil(tmp_path / "p.json", names, slices)
        assert main(["verify-detrep", "--matrix", pencil, "--poly", h, "--dir", "1,0,0", "--json"]) == EXIT_REFUTED
        report = json.loads(capsys.readouterr().out)
        assert report["failures"] == [{"name": "determinant", "witness": "at x = 1,1,0: det = 8, c*h^r = 4"}]
        matrices, _ = pencil_from_json(Path(pencil).read_text())
        assert const_det(pencil_value(matrices, (1, 1, 0))) == 8
        assert eval_reference(load_poly_file(h), (1, 1, 0)) == 4


class TestSosRoundtrip:
    def test_sos_to_detrep_and_back(self, files, tmp_path, capsys):
        code = main(["sos-to-detrep", "--squares", files["squares.txt"], "--json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        matrix_path = tmp_path / "Q.json"
        matrix_path.write_text(json.dumps(payload["matrix"]), encoding="ascii")
        p_path = tmp_path / "p.txt"
        p_path.write_text(
            "ring: vars=x1,x2 weights=1,1 gaussian=false\n4*x1^2 + 4*x2^2\n",
            encoding="ascii",
        )
        code = main(
            ["detrep-to-sos", "--matrix", str(matrix_path), "--poly", str(p_path), "--json"]
        )
        assert code == EXIT_OK
        sos = json.loads(capsys.readouterr().out)
        assert len(sos["squares"]) >= 1


class TestQuadraticDetrepErrors:
    def test_non_hyperbolic_exit_one(self, files, capsys):
        code = main(
            ["quadratic-detrep", "--poly", files["sphere.txt"], "--dir", "1,0,0", "--json"]
        )
        assert code == EXIT_REFUTED
        payload = json.loads(capsys.readouterr().out)
        assert payload["stage"] == "branch-sos"
        assert "witness_vector" in payload


DATA = Path(clifford.__file__).with_name("data")


def _quadratic(tmp_path, header, text, direction="1,0,0"):
    h = tmp_path / "h.txt"
    h.write_text(f"ring: {header}\n{text}\n")
    return ["quadratic-detrep", "--poly", str(h), "--dir", direction]


def _sos(tmp_path, entries):
    """detrep-to-sos on a symmetric 2x2 matrix in x1, against p = x1^2."""
    matrix = tmp_path / "a.json"
    ring = {"vars": ["x1"], "weights": [1], "gaussian": False}
    matrix.write_text(json.dumps({"ring": ring, "kind": "symmetric", "entries": entries}))
    return ["detrep-to-sos", "--matrix", str(matrix), "--poly", _write_poly(tmp_path / "p.txt", ["x1"], "x1^2")]


def _imaginary_cells_in_a_real_pencil(tmp_path):
    """verify-detrep on a pencil declared "gaussian": false whose hermitian
    cells 1+i and 1-i are not real, against an h in a Gaussian ring."""
    pencil = tmp_path / "p.json"
    pencil.write_text(json.dumps({"vars": ["x0", "x1"], "gaussian": False, "kind": "hermitian",
                                  "matrices": [[["1", "0"], ["0", "1"]], [["0", "1+i"], ["1-i", "0"]]]}))
    h = _write_poly(tmp_path / "h.txt", ["x0", "x1"], "x0^2 - 2*x1^2", gaussian=True)
    return ["verify-detrep", "--matrix", str(pencil), "--poly", h, "--dir=1,0", "--json"]


# Bad input: exit 64 with "input error: ..." on stderr and nothing on stdout,
# never a traceback and never exit 1, which means refuted.
BAD_INPUT = {
    "poly-is-a-directory": lambda t: ["check-hyperbolic", "--poly", str(t), "--dir", "1,0,0"],
    "out-is-a-directory": lambda t: _quadratic(t, "vars=x0,x1,x2", "x0^2 - x1^2 - x2^2") + ["--out", str(t)],
    "out-is-a-directory-json": lambda t: _quadratic(t, "vars=x0,x1,x2", "x0^2 - x1^2 - x2^2") + ["--out", str(t), "--json"],
    "quadratic-not-quadratic": lambda t: _quadratic(t, "vars=x0,x1,x2", "x0^3 - x0*x1^2"),
    "quadratic-dir-arity": lambda t: _quadratic(t, "vars=x0,x1,x2", "x0^2 - x1^2 - x2^2", "1,0"),
    "quadratic-h-of-e-is-zero": lambda t: _quadratic(t, "vars=x0,x1,x2", "x0^2 - x1^2 - x2^2", "1,1,0"),
    "quadratic-weighted-ring": lambda t: _quadratic(t, "vars=x0,x1 weights=1,2", "x0^2 - x1", "1,0"),
    "quadratic-complex": lambda t: _quadratic(t, "vars=x0,x1 gaussian=true", "x0^2 - x1^2 + i*x0*x1", "1,0"),
    "sos-column-out-of-range": lambda t: ["detrep-to-sos", "--matrix", str(DATA / "F3_matrix.json"),
                                          "--poly", str(DATA / "F3_p.txt"), "--column", "5"],
    "sos-p-in-another-ring": lambda t: ["detrep-to-sos", "--matrix", str(DATA / "F3_matrix.json"),
                                        "--poly", str(DATA / "F1_poly.txt")],
    "pencil-imaginary-cell-not-gaussian": _imaginary_cells_in_a_real_pencil,
}

# detrep-to-sos refusals with a witness: exit 1, as for a refuted quadric
# (TestQuadraticDetrepErrors).
REFUTED = {
    "sos-not-an-involution": (lambda t: _sos(t, [["0", "x1"], ["x1", "x1"]]), "refused: A^2 != p*I at x = 1"),
    "sos-breaks-its-kind": (lambda t: _sos(t, [["0", "x1"], ["2*x1", "0"]]), "refused: matrix entry (0, 1)"),
}


class TestExitCodes:
    @pytest.mark.parametrize("case", BAD_INPUT)
    def test_bad_input_exits_64(self, tmp_path, capsys, case):
        assert main(BAD_INPUT[case](tmp_path)) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("input error: ")
        assert captured.out == ""  # --out is written before the report

    def test_imaginary_cell_of_a_real_pencil(self, tmp_path, capsys):
        # The cells are parsed in the ring the pencil declares, not in a
        # Gaussian one that would certify it against a Gaussian h.
        assert main(_imaginary_cells_in_a_real_pencil(tmp_path)) == EXIT_USAGE
        assert capsys.readouterr().err == "input error: imaginary coefficient in a non-gaussian ring\n"

    @pytest.mark.parametrize("cell", ["i", "-i", "3*i", "2-5*i"])
    def test_imaginary_literal_cell_of_a_real_pencil(self, tmp_path, capsys, cell):
        # A Gaussian integer literal skips the grammar only in a Gaussian ring.
        argv = _imaginary_cells_in_a_real_pencil(tmp_path)
        pencil = json.loads(Path(argv[2]).read_text())
        pencil["matrices"][1] = [[cell, "1"], ["1", "0"]]  # the one cell that is not real
        Path(argv[2]).write_text(json.dumps(pencil))
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == "input error: imaginary coefficient in a non-gaussian ring\n"

    @pytest.mark.parametrize("case", REFUTED)
    def test_refutation_exits_1(self, tmp_path, capsys, case):
        argv, err = REFUTED[case]
        assert main(argv(tmp_path)) == EXIT_REFUTED
        assert capsys.readouterr().err.startswith(err)


def _text(path, text):
    path.write_text(text)
    return str(path)


def _polymatrix(path, names, entries, weights=None):
    ring = {"vars": names, "weights": weights or [1] * len(names), "gaussian": False}
    path.write_text(json.dumps({"ring": ring, "kind": "symmetric", "entries": entries}))
    return str(path)


def _pencil_check(t, h_text, direction="1,0,0", header="vars=x0,x1,x2"):
    """verify-detrep in pencil mode: QUADRIC_SLICES in x0, x1, x2 against h."""
    pencil = _write_pencil(t / "p.json", ["x0", "x1", "x2"], QUADRIC_SLICES)
    h = _text(t / "h.txt", f"ring: {header}\n{h_text}\n")
    return ["verify-detrep", "--matrix", pencil, "--poly", h, "--dir", direction]


def _companion_check(t, h_header, h_text, names=("x1", "x2")):
    """verify-detrep --companion: [[0, x1], [x1, 0]] in ``names`` against h."""
    matrix = _polymatrix(t / "a.json", list(names), [["0", "x1"], ["x1", "0"]])
    h = _text(t / "h.txt", f"ring: {h_header}\n{h_text}\n")
    return ["verify-detrep", "--companion", "--matrix", matrix, "--poly", h]


def _squares(t, text):
    return ["sos-to-detrep", "--squares", _text(t / "s.txt", text)]


# Usage and input errors that no other test reaches, one table per layer:
# each exits 64 with exactly this line on stderr and nothing on stdout.
CLI_USAGE_ERRORS = {
    "companion-with-a-pencil-file": (
        lambda t: _pencil_check(t, "x0^2 - x1^2 - x2^2")[:-2] + ["--companion"],
        "usage error: companion verification needs a polynomial matrix file"),
    "pencil-mode-without-dir": (
        lambda t: _pencil_check(t, "x0^2 - x1^2 - x2^2")[:-2],
        "usage error: pencil verification needs --dir"),
    "detrep-to-sos-with-a-pencil-file": (
        lambda t: ["detrep-to-sos", "--matrix", _write_pencil(t / "p.json", ["x0", "x1", "x2"], QUADRIC_SLICES),
                   "--poly", _write_poly(t / "p.txt", ["x0", "x1", "x2"], "x0^2")],
        "usage error: SOS extraction needs a polynomial matrix file"),
}
VERIFY_PENCIL_ERRORS = {
    "weighted-ring": (lambda t: _pencil_check(t, "x0^2 - x1^2 - x2", header="vars=x0,x1,x2 weights=1,1,2"),
                      "input error: pencil verification needs an unweighted ring"),
    "direction-arity": (lambda t: _pencil_check(t, "x0^2 - x1^2 - x2^2", direction="1,0"),
                        "input error: direction arity mismatch"),
    "h-not-homogeneous": (lambda t: _pencil_check(t, "x0^2 - x1^2 - x2"),
                          "input error: h must be nonzero and homogeneous"),
}
VERIFY_COMPANION_ERRORS = {
    "no-y": (lambda t: _companion_check(t, "vars=x0,x1,x2", "x0^2 - x1^2"),
             "input error: companion form needs a distinguished variable named 'y'"),
    "weighted-x": (lambda t: _companion_check(t, "vars=y,x1,x2 weights=1,2,1", "y^2 - x1"),
                   "input error: all non-y variables must have weight 1"),
    "matrix-in-another-ring": (lambda t: _companion_check(t, "vars=y,x1,x2", "y^2 - x1^2", names=("x1",)),
                               "input error: companion matrix must live in h's ring without y"),
    "h-not-homogeneous": (lambda t: _companion_check(t, "vars=y,x1,x2", "y^2 - x1"),
                          "input error: h must be weighted-homogeneous"),
    "degree-not-a-multiple-of-y": (lambda t: _companion_check(t, "vars=y,x1,x2 weights=2,1,1", "x1^3"),
                                   "input error: deg(h) must be a multiple of the weight of y"),
}
# build_Q's checks and sos_to_detrep's own refusals, all before any table is built.
SOS_TO_DETREP_ERRORS = {
    "complex-form": (lambda t: _squares(t, "ring: vars=x1,x2 gaussian=true\ni*x1\nx2\n"),
                     "input error: forms must have real coefficients"),
    "zero-form": (lambda t: _squares(t, "ring: vars=x1,x2\nx1\n0\n"), "input error: forms must be nonzero"),
    "inhomogeneous-form": (lambda t: _squares(t, "ring: vars=x1,x2\nx1 + x2^2\n"),
                           "input error: forms must be homogeneous"),
    "mixed-degrees": (lambda t: _squares(t, "ring: vars=x1,x2\nx1\nx2^2\n"),
                      "input error: mixed degrees [1, 2]: forms must share one degree"),
    "constant-forms": (lambda t: _squares(t, "ring: vars=x0\n1\n2\n"),
                       "input error: the forms are constants: y takes their degree, which must be positive"),
    "a-variable-named-y": (lambda t: _squares(t, "ring: vars=x0,y\nx0\ny\n"),
                           "input error: the forms' ring names a variable y, which h = y^2 - P adds"),
    "weighted-ring": (lambda t: _squares(t, "ring: vars=x0,x1 weights=2,1\nx0\nx1^2\n"),
                      "input error: the forms' ring is weighted: every variable of h = y^2 - P but y needs weight 1"),
}
WIRE_ERRORS = {
    "malformed-header-field": (
        lambda t: ["check-hyperbolic", "--poly", _text(t / "h.txt", "ring: vars=x0,x1 junk\nx0^2\n"), "--dir", "1,0"],
        "input error: malformed ring header field 'junk'"),
    "empty-file": (lambda t: ["check-hyperbolic", "--poly", _text(t / "h.txt", "\n \n"), "--dir", "1,0"],
                   "input error: empty polynomial file"),
    "header-without-expression": (
        lambda t: ["check-hyperbolic", "--poly", _text(t / "h.txt", "ring: vars=x0,x1\n\n"), "--dir", "1,0"],
        "input error: polynomial file has no expression after the header"),
    "squares-without-a-polynomial": (lambda t: _squares(t, "ring: vars=x1,x2\n"),
                                     "input error: squares file needs a ring header and at least one polynomial"),
    "wrong-matrix-count": (
        lambda t: ["verify-detrep", "--matrix", _write_pencil(t / "p.json", ["x0", "x1", "x2"], QUADRIC_SLICES[:2]),
                   "--poly", _write_poly(t / "h.txt", ["x0", "x1", "x2"], "x0^2 - x1^2 - x2^2"), "--dir", "1,0,0"],
        "input error: pencil needs one constant matrix per variable"),
}


LAYER_ERRORS = {"cli": CLI_USAGE_ERRORS, "verify_pencil": VERIFY_PENCIL_ERRORS,
                "verify_companion": VERIFY_COMPANION_ERRORS, "sos_to_detrep": SOS_TO_DETREP_ERRORS, "wire": WIRE_ERRORS}


class TestLayerErrors:
    @pytest.mark.parametrize("layer, case", [(layer, case) for layer, table in LAYER_ERRORS.items() for case in table])
    def test_exits_64(self, tmp_path, capsys, monkeypatch, layer, case):
        def tripwire(*args, **kwargs):
            raise AssertionError("a generator table was built")

        monkeypatch.setattr(clifford, "clifford_generators", tripwire)  # each refusal comes before any table
        argv, err = LAYER_ERRORS[layer][case]
        assert main(argv(tmp_path)) == EXIT_USAGE
        assert capsys.readouterr() == ("", err + "\n")


class TestQuadraticDetrepCompact:
    def test_twelve_squares_certify_in_128_rows(self, tmp_path, capsys):
        # 28 = 4^2 + 2^2 + 2^2 + 2^2 per variable: 12 branch squares, which
        # the paper's table refused ("at most 8 forms").
        h = _write_poly(tmp_path / "h.txt", ["x0", "x1", "x2", "x3"], "x0^2 - 7*x1^2 - 7*x2^2 - 7*x3^2")
        assert main(["quadratic-detrep", "--poly", h, "--dir", "1,0,0,0", "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["pencil"]["matrices"][0]) == 128 and payload["r"] == 64
        assert payload["report"]["ok"] is True

    def test_eighteen_squares_refused_before_any_matrix(self, tmp_path, capsys, monkeypatch):
        def tripwire(*args, **kwargs):
            raise AssertionError("table or pencil built past the size limit")

        monkeypatch.setattr(clifford, "_radon_columns", tripwire)
        monkeypatch.setattr(scalars.ConstMatrix, "__init__", tripwire)
        names = [f"x{k}" for k in range(6)]
        h = _write_poly(tmp_path / "h.txt", names, "x0^2 - 7*x1^2 - 7*x2^2 - 7*x3^2 - 7*x4^2 - 2*x5^2")
        assert main(["quadratic-detrep", "--poly", h, "--dir", "1,0,0,0,0,0"]) == EXIT_USAGE
        assert capsys.readouterr().err == "capacity error: 18 forms need a 1024x1024 pencil; at most 512 rows are supported\n"

    def test_nine_squares_of_the_paper_table_are_a_capacity_error(self, tmp_path, capsys):
        squares = tmp_path / "squares.txt"
        squares.write_text("ring: vars=x1,x2 gaussian=false\n" + "".join(f"x1 + {k}*x2\n" for k in range(9)))
        assert main(["sos-to-detrep", "--squares", str(squares)]) == EXIT_USAGE
        assert capsys.readouterr().err == "capacity error: 9 forms need a 1024x1024 pencil; at most 512 rows are supported\n"


# SHA-256 of `quadratic-detrep --json` stdout, computed with the
# polynomial-matrix construction of the pencil (Q as forms, ell*I - Q, u = T*x
# substituted into every entry, then cut into slices) that
# oracles.quadratic_detrep_reference keeps.
QUADRATIC_DETREP_SHA256 = [
    (["x0", "x1", "x2"], "x0^2 - x1^2 - x2^2", "1,0,0",
     "7872bc519a9a4b663334c4916281075f0c0383581b4fa3204966aef82df19a5a"),
    (["x0", "x1"], "3*x1^2 - x0^2", "1,0", "2c9fc5aef344c596a0546308f0fb63bde092235c4b61aa11c803869d2b4521b1"),
    (["x0", "x1"], "(x0 + x1)^2", "1,0", "962f1f4c3734900f14d8bbe5e25edff51e524df377319dbbcbfa74f779a4e83d"),
    (["x0", "x1", "x2", "x3"], "x0^2 - 7*x1^2 - 7*x2^2 - 7*x3^2", "1,0,0,0",
     "d70c7cc5e795f51bf618890b0f5e058d811950466418050e5fbfe6d091565762"),
]


class TestQuadraticDetrepReportBytes:
    @pytest.mark.parametrize("names, text, direction, digest", QUADRATIC_DETREP_SHA256)
    def test_report_bytes_are_pinned(self, tmp_path, capsys, names, text, direction, digest):
        h = _write_poly(tmp_path / "h.txt", names, text)
        assert main(["quadratic-detrep", "--poly", h, "--dir", direction, "--json"]) == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode("ascii")).hexdigest() == digest


E3 = "x0*x1*x2 + x0*x1*x3 + x0*x2*x3 + x1*x2*x3"
E2 = "x0*x1 + x0*x2 + x0*x3 + x1*x2 + x1*x3 + x2*x3"

# SHA-256 of the `--json` stdout of the sampled checks, computed with the
# signed remainder sequence over Q (tests/oracles.py, sturm_chain_reference)
# and a Taylor table differentiated as polynomials over Q(i): for each
# command one run that finds no counterexample and one refuted run, whose
# witness carries the restricted polynomial.  (h, g or None, e, samples,
# exit code, digest); seed 11 throughout.
SAMPLED_SHA256 = [
    (E3, None, "1,2/3,1/2,3/7", "40", EXIT_OK, "d09ef02f3f28a66471ceddbbc104b585874cfb56168d3da996b5a315b68404bf"),
    ("(x0^2 - x1^2 - x2^2 + 1/5*x3^2)*(x0 + 1/2*x1)", None, "3/2,1/3,0,0", "40", EXIT_REFUTED,
     "53161c6aed9325f96ad1140992988544c2c6ef1132dd96a00cda699af26eeb91"),
    (E3, E2, "1,1/2,1/3,1", "30", EXIT_OK, "2483125613c1862f2142ae65b0071ce5726f96af2464b7cf8d28f36ef599664b"),
    (E3, E2 + " - 1/2*x3^2 - x0*x1", "1,1,1,1", "40", EXIT_REFUTED,
     "4447dde031d091631222e54874ac4c155e5845b43f48dedd06d3bc8d3d226b26"),
]


class TestSampledReportBytes:
    @pytest.mark.parametrize("h, g, direction, samples, code, digest", SAMPLED_SHA256)
    def test_report_bytes_are_pinned(self, tmp_path, capsys, h, g, direction, samples, code, digest):
        names = ["x0", "x1", "x2", "x3"]
        argv = ["--poly", _write_poly(tmp_path / "h.txt", names, h), f"--dir={direction}",
                "--samples", samples, "--seed", "11", "--json"]
        if g is None:
            argv = ["check-hyperbolic", *argv]
        else:
            argv = ["check-interlacer", "--interlacer", _write_poly(tmp_path / "g.txt", names, g), *argv]
        assert main(argv) == code
        assert hashlib.sha256(capsys.readouterr().out.encode("ascii")).hexdigest() == digest


# Dense 3x3 pencils U^* diag(l_1, l_2, l_3) U in x0, x1, x2, with U
# unimodular (Gaussian for hermitian) so that det = l_1*l_2*l_3 = h, each
# l_k positive at VERIFY_E.  "tampered" adds e1 to A0[0][0] and -e0 to
# A1[0][0], which keeps A(e) and moves det off h; "negative" negates l_2,
# which keeps det = h and makes A(e) indefinite.
VERIFY_FORMS = [(1, 1, 0), (1, 0, -1), (2, 1, 1)]
VERIFY_E = (2, 1, -1)
UNIMODULAR = {
    "symmetric": [[1, 1, 0], [0, 1, 2], [1, 1, 1]],
    "hermitian": [[1, 1j, 0], [1 + 1j, 1j, 1 - 1j], [0, 1j, 2 + 1j]],
}


def _dense_pencil(tmp_path, kind, variant):
    """verify-detrep --json on one pencil of the family above."""
    u, names = UNIMODULAR[kind], ["x0", "x1", "x2"]
    forms = [tuple(-c for c in f) if variant == "negative" and k == 1 else f for k, f in enumerate(VERIFY_FORMS)]
    slices = []
    for v in range(3):
        rows = [[sum(u[k][i].conjugate() * forms[k][v] * u[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
        if variant == "tampered" and v < 2:
            rows[0][0] += VERIFY_E[1] if v == 0 else -VERIFY_E[0]
        slices.append(scalars.ConstMatrix([[scalars.GaussianRational(int(z.real), int(z.imag)) for z in row]
                                           for row in rows], kind))
    pencil = tmp_path / "pencil.json"
    pencil.write_text(json.dumps(pencil_to_json_dict(slices, names, kind == "hermitian")))
    text = "*".join("(" + " + ".join(f"{c}*{x}" for c, x in zip(f, names)) + ")" for f in forms)
    h = _write_poly(tmp_path / "h.txt", names, text, gaussian=kind == "hermitian")
    return ["verify-detrep", "--matrix", str(pencil), "--poly", h, f"--dir={','.join(map(str, VERIFY_E))}", "--json"]


# SHA-256 of `verify-detrep --json` stdout, captured before pencil cells were
# parsed once per file and the slices scaled once per pencil.
VERIFY_SHA256 = [
    ("symmetric", "valid", EXIT_OK, "f9f309a8fc385bd14df1fcb1a403c432f2802a5376601da357b979f696d56c28"),
    ("symmetric", "tampered", EXIT_REFUTED, "4a09e36d07c580745d6231e9a3424fc37b7363a13ecc860b830854270afaaca7"),
    ("symmetric", "negative", EXIT_REFUTED, "d98422e1f2d371d4579b155fd420d00ba3510153b0265599a25c56b3362d35a1"),
    ("hermitian", "valid", EXIT_OK, "f9f309a8fc385bd14df1fcb1a403c432f2802a5376601da357b979f696d56c28"),
    ("hermitian", "tampered", EXIT_REFUTED, "9d2adca07ee2da617fdd5a01e17837715257dbf4f1af7c2ef26bf4db02df4678"),
    ("hermitian", "negative", EXIT_REFUTED, "716964c6860f765c1d7d853344f7fdf145630f0b8ce6961770a062ae7a28bba2"),
]


class TestVerifyReportBytes:
    @pytest.mark.parametrize("kind, variant, code, digest", VERIFY_SHA256)
    def test_report_bytes_are_pinned(self, tmp_path, capsys, kind, variant, code, digest):
        assert main(_dense_pencil(tmp_path, kind, variant)) == code
        assert hashlib.sha256(capsys.readouterr().out.encode("ascii")).hexdigest() == digest


# Linear forms in x0, x1, x2 for `sos-to-detrep`; a case is the first k
# of them, or a list with a repeated form (equal but separately parsed).
SOS_FORMS = ["x0 + 2*x1 - x2", "3*x0 - x1 + 1/2*x2", "2*x0 + x1 + 4*x2", "x0 - 5*x1 + 2*x2",
             "4*x0 + 3*x1 - 3/2*x2", "5*x0 - 2*x1 + x2"]
SOS_CASES = {1: SOS_FORMS[:1], 2: SOS_FORMS[:2], 4: SOS_FORMS[:4], 6: SOS_FORMS,
             "repeated": [SOS_FORMS[0], SOS_FORMS[1], SOS_FORMS[0]]}

# SHA-256 of `sos-to-detrep --json` stdout, captured before the companion
# matrix shared its entries and checked and printed each distinct one once.
SOS_SHA256 = [
    (1, "e747e1185134472b750e4e96c1240e86f9bf91329fd323366153582f09002ad3"),
    (2, "33f2d80de2def6fe423e0070e6cdabd7d123c26d1cf73cd19b5a12925503b820"),
    (4, "cc48933cf92ad9c738e5667bc848f54eac9fbe2a1b9dde3996a80bfb1359fcf2"),
    (6, "90b1ae45e115db654fae6bb48eb78b4bf3698aec86afc16d26b3af672b59024a"),
    ("repeated", "9b651db971798588d2b05ff1f5dda63110802ee264db1cd817267285e2c4922b"),
]


class TestSosToDetrepReportBytes:
    @pytest.mark.parametrize("case, digest", SOS_SHA256)
    def test_report_bytes_are_pinned(self, tmp_path, capsys, case, digest):
        squares = tmp_path / "squares.txt"
        lines = ["ring: vars=x0,x1,x2 weights=1,1,1 gaussian=false"] + SOS_CASES[case]
        squares.write_text("".join(f"{line}\n" for line in lines))
        assert main(["sos-to-detrep", "--squares", str(squares), "--json"]) == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode("ascii")).hexdigest() == digest


# `verify-detrep --companion --json` on F3 (involution route), x1*I against
# y^2 - x1^2 (trace 2*x1 != 0: lattice route, refuted), and Clifford Qs:
# for P = (x1 + 2*x2)^2 + (3*x1 - x2)^2 against h = y^2 - P (involution
# route) and h shifted by x1^2 (lattice route, refuted), and for the square
# P = (x1 + 2*x2)^2 against y^2 - P (involution route, a square branch).
COMPANION_CASES = {
    "x1*I": ([["x1", "0"], ["0", "x1"]], "y^2 - x1^2"),
    "clifford": (["x1 + 2*x2", "3*x1 - x2"], "y^2 - (x1 + 2*x2)^2 - (3*x1 - x2)^2"),
    "clifford-shifted": (["x1 + 2*x2", "3*x1 - x2"], "y^2 - (x1 + 2*x2)^2 - (3*x1 - x2)^2 + x1^2"),
    "clifford-square": (["x1 + 2*x2"], "y^2 - (x1 + 2*x2)^2"),
}


def _companion(tmp_path, case):
    if case == "F3":
        return ["verify-detrep", "--companion", "--matrix", str(DATA / "F3_matrix.json"),
                "--poly", str(DATA / "F3_h.txt"), "--json"]
    rows, text = COMPANION_CASES[case]
    ring = Ring.standard(("x1", "x2"))
    if case == "x1*I":
        matrix = PolyMatrix.from_strings(ring, rows, "symmetric")
    else:
        matrix = clifford.build_Q([parse(form, ring) for form in rows])
    path = tmp_path / "a.json"
    path.write_text(json.dumps(matrix.to_json_dict()))
    h = _write_poly(tmp_path / "h.txt", ["y", "x1", "x2"], text)
    return ["verify-detrep", "--companion", "--matrix", str(path), "--poly", h,
            "--power", str(matrix.size // 2), "--json"]


# SHA-256 of `verify-detrep --companion --json` stdout, captured while the
# involution route still formed P and y^2 - P as polynomials.
COMPANION_SHA256 = [
    ("F3", EXIT_OK, "ee53cff0560c859a579bfe63c4a43da5b73b67c75c43cec1997ce61a81e16581"),
    ("x1*I", EXIT_REFUTED, "fc2595b86d57ec4fe856d6bd1ebe019312d0ab5d9cb460b7befa4ed859e4715c"),
    ("clifford", EXIT_OK, "76c0777910c2c06f8139724758adb88daeaa3e192e867ed9ebec0c8af85eb555"),
    ("clifford-shifted", EXIT_REFUTED, "a10e88e4d2891fe19ba6e643da3a30e9923f259ea688757b38188e2904927b66"),
    ("clifford-square", EXIT_OK, "36b7d11dc2fe8fb6a55b0f1a9d4aeb6e55aa4816106c8e689ab40379bf43cd3c"),
]


class TestCompanionReportBytes:
    @pytest.mark.parametrize("case, code, digest", COMPANION_SHA256)
    def test_report_bytes_are_pinned(self, tmp_path, capsys, case, code, digest):
        assert main(_companion(tmp_path, case)) == code
        assert hashlib.sha256(capsys.readouterr().out.encode("ascii")).hexdigest() == digest


class TestSharedCells:
    """Equal cell texts of one pencil file are parsed once, into one shared
    object; the kind check still refuses an entry that is shared with its
    mirror but is not real, with the witness it gave before."""

    @pytest.mark.parametrize("kind, cell", [("hermitian", "1+i"), ("symmetric", "i")])
    def test_shared_cell_breaks_its_kind(self, tmp_path, capsys, kind, cell):
        pencil = {"vars": ["x0", "x1"], "gaussian": True, "kind": kind,
                  "matrices": [[["1", "0"], ["0", "1"]], [["0", cell], [cell, "0"]]]}
        matrices, _ = pencil_from_json(pencil)
        rows = matrices[1].entries  # one read holds one object per distinct value
        assert rows[0][1] is rows[1][0]
        assert matrices[1].kind_violation() == (0, 1)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(pencil))
        h = _write_poly(tmp_path / "h.txt", ["x0", "x1"], "x0^2 - 2*x1^2", gaussian=True)
        assert main(["verify-detrep", "--matrix", str(path), "--poly", h, "--dir=1,0", "--json"]) == EXIT_REFUTED
        failures = json.loads(capsys.readouterr().out)["failures"]
        assert failures[0] == {"name": "kind", "witness": f"matrix 1 entry (0, 1) breaks {kind} symmetry"}


class TestFixturesCommand:
    def test_single_fixture(self, capsys):
        code = main(["fixtures", "run", "--id", "F1"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "F1 pass" in out

    def test_unknown_fixture(self, capsys):
        assert main(["fixtures", "run", "--id", "F9"]) == EXIT_USAGE

    def test_unknown_action_is_a_usage_error(self, capsys):
        assert main(["fixtures", "list"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: ") and "'list'" in captured.err
        assert captured.out == ""

    def test_json_report_bytes_are_pinned(self, capsys):
        assert main(["fixtures", "run", "--json"]) == EXIT_OK
        digest = hashlib.sha256(capsys.readouterr().out.encode("ascii")).hexdigest()
        assert digest == "4aed7fdbb3c15a1c5485e14e6e7acf50bdc26ae83878371adca32e2b008d5d8e"

    def test_json_report_is_byte_stable(self, capsys):
        assert main(["fixtures", "run", "--json"]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["fixtures", "run", "--json"]) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["passed"] == payload["total"] == 6


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_calls_do_not_leak_options(self, capsys):
        # A --json call, then a usage error, then a text call on the reused parser.
        assert main(["fixtures", "run", "--id", "F1", "--json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["total"] == 1
        assert main(["fixtures", "run", "--id", "F1", "--nope"]) == EXIT_USAGE
        assert main(["fixtures", "run", "--id", "F1"]) == EXIT_OK
        assert "F1 pass" in capsys.readouterr().out
