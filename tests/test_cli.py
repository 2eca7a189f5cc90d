import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time
import warnings

import pytest

from bvcalc import Derivation, ModelError, OddPowerWarning, cli, parse_model
from bvcalc.modelfile import load_model

from conftest import MODELS, change_basis, gl, refusing_self_brackets

SRC = MODELS.parent / "src"
# the exit code and stdout sha256 of every fixture run, recorded for the
# cli-models benchmark; read here, never rewritten
with open(MODELS.parent / "bench" / "golden_cli.json", encoding="utf-8") as fh:
    GOLDEN = json.load(fh)


def run(capsys, *args):
    code = cli.main([str(a) for a in args])
    return code, capsys.readouterr().out


class TestModelFiles:
    def test_lie_model_loads(self):
        model = load_model(str(MODELS / "sl2.model"))
        assert model.lie.dim == 3
        assert [g.name for g in model.ctx.generators] == \
            ["c1", "c2", "c3", "c1p", "c2p", "c3p"]

    def test_rep_model_loads(self):
        model = load_model(str(MODELS / "sl2_adjoint.model"))
        assert model.lie.module_dim == 3
        assert model.module_names == ("vh", "ve", "vf")
        assert "S0" in model.exprs

    def test_generator_model_loads(self):
        model = load_model(str(MODELS / "gauge11.model"))
        assert model.lie is None
        assert model.bvs.pairs == (("x", "xp"), ("th", "thp"))

    @pytest.mark.parametrize("text, message", [
        ("x even field\n", "before the first section"),
        ("[nope]\n", "unknown section"),
        ("[generators]\nx even field\n[lie]\nbasis = a\n", "exactly one"),
        ("[lie]\nbasis = a a\n", "distinct"),
        ("[lie]\nbasis = a b\n[brackets]\n[a,q] = b\n", "unknown basis"),
        ("[lie]\nbasis = a b\n[brackets]\n[a,b] = a*b\n", "linear"),
        ("[generators]\nx even field\n", "pairing"),
        ("[generators]\nx even field\nxp odd antifield x\n[exprs]\nS = x*\n",
         "in expression"),
    ])
    def test_diagnostics(self, text, message):
        with pytest.raises(ModelError, match=message):
            parse_model(text)

    @pytest.mark.parametrize("text, message", [
        ("[generators]\nx even field\nxp odd antifield x\n[exprs]\n  S =   x + $\n",
         "in expression 'S': unexpected character '$' (line 5, column 13)"),
        ("[lie]\nbasis = a b\n[brackets]\n\t[a,b] = b + $\n",
         "in bracket [a,b]: unexpected character '$' (line 4, column 14)"),
        ("[lie]\nbasis = a\nmodule = v\n[rep]\n    a.v = 2*(v  # open\n",
         "in rep entry a.v: expected ')' (line 5, column 15)"),
    ])
    def test_expression_diagnostics_give_file_columns(self, text, message):
        # indented entries: the column counts from the start of the file line,
        # and the line is named once
        with pytest.raises(ModelError) as err:
            parse_model(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("text, message", [
        ("[lie]\nbasis =\n", "[lie] basis names no vector (line 2)"),
        ("[lie]\n\nbasis = a 2b\n", "basis names must be distinct identifiers (line 3)"),
        ("[lie]\nbasis = a b\nmodule = v v\n",
         "module names must be distinct identifiers (line 3)"),
        ("[lie]\nbasis = a hbar\n", "'hbar' is reserved in expressions (line 2)"),
        ("[lie]\nmodule = i\nbasis = a\n", "'i' is reserved in expressions (line 2)"),
        # a structure constant with i or hbar once exited 3 from as_fraction
        ("[lie]\nbasis = a b\n[brackets]\n[a,b] = i*a\n",
         "bracket [a,b]: scalar i has an imaginary part (line 4)"),
        ("[lie]\nbasis = a\nmodule = v\n[rep]\na.v = hbar*v\n",
         "rep entry a.v: scalar hbar carries hbar, not a plain rational (line 5)"),
    ])
    def test_lie_diagnostics_name_their_line(self, text, message, capsys, tmp_path):
        model = tmp_path / "bad.model"
        model.write_text(text)
        code, out = run(capsys, "check-lie", model)
        assert code == 2
        assert f"error: {message}" in out.splitlines()

    def test_bracket_consistency_error(self):
        # a pair in both orders is refused at its second line, whether or
        # not the two values agree; LieModel.build keeps its own check
        text = "[lie]\nbasis = a b\n[brackets]\n[a,b] = b\n[b,a] = b\n"
        with pytest.raises(ModelError) as err:
            parse_model(text)
        assert str(err.value) == ("bracket [b,a] is given twice, first as bracket [a,b] "
                                  "at line 4 (line 5)")

    LIE = "[lie]\nbasis = h e f\nmodule = va vb\n"

    @pytest.mark.parametrize("text, message", [
        (LIE + "[brackets]\n[h,e] = e\n[h,e] = f\n",
         "bracket [h,e] is given twice, first at line 5 (line 6)"),
        (LIE + "[brackets]\n[h,e] = 2*e\n[h,e] = 3*e\n",
         "bracket [h,e] is given twice, first at line 5 (line 6)"),
        (LIE + "[brackets]\n[h,e] = e\n[e,h] = e\n",
         "bracket [e,h] is given twice, first as bracket [h,e] at line 5 (line 6)"),
        (LIE + "[brackets]\n[h,h] = e\n",
         "bracket [h,h] of a basis vector with itself must be zero (line 5)"),
        (LIE + "[rep]\nh.va = va\nh.va = vb\n",
         "rep entry h.va is given twice, first at line 5 (line 6)"),
        (LIE + "[rep]\nh.va = va + 1\n", "rep entry h.va has a constant part (line 5)"),
        (LIE + "[rep]\nh.va = va*vb\n", "rep entry h.va must be linear (line 5)"),
        ("[lie]\nbasis = h e\nmodule = va c2\n",
         "module coordinate c2 clashes with ghost c2 (line 3)"),
        ("[lie]\nbasis = h e\nmodule = va vap\n",
         "module coordinate vap clashes with the antifield of va (line 3)"),
        ("[lie]\nmodule = c1p\nbasis = h\n",
         "module coordinate c1p clashes with the antifield of c1 (line 2)"),
        ("[generators]\nx even field\nxp odd antifield x\nx odd plain\n",
         "generator x is given twice, first at line 2 (line 4)"),
        ("[lie]\nbasis = a b\nbasis = c\n",
         "[lie] entry 'basis' is given twice, first at line 2 (line 3)"),
        ("[lie]\nbasis = h e\nmodule = va\n\nmodule = vb\n",
         "[lie] entry 'module' is given twice, first at line 3 (line 5)"),
    ])
    @pytest.mark.parametrize("command", ["brst", "check-lie"])
    def test_repeated_and_clashing_entries_refused_at_their_line(self, command, text,
                                                                 message, capsys, tmp_path):
        model = tmp_path / "bad.model"
        model.write_text(text)
        code, out = run(capsys, command, model)
        assert code == 2
        assert f"status: refused\nerror: {message}\n" in out

    @pytest.mark.parametrize("generators, message", [
        ("x even field\nxp odd antifield y\n",
         "antifield xp is not paired with a field (line 4)"),
        ("x even field\nxp even antifield x\n",
         "antifield xp must have opposite parity to x (line 4)"),
        ("x even field\na odd antifield x\nb odd antifield x\n",
         "field x has two antifields (line 5)"),
        ("x even field\nt odd field\ntp even antifield t\n",
         "context lacks a perfect field/antifield pairing (line 3)"),
        ("w even plain\n", "context lacks a perfect field/antifield pairing (line 2)"),
    ])
    def test_pairing_refusals(self, generators, message, capsys, tmp_path):
        # BVSpace checks the pairing; the model file names the line of the
        # antifield refused, of the first unpaired field, or, with no field,
        # of the [generators] header, which a comment line puts at line 2
        model = tmp_path / "bad.model"
        model.write_text("# pairing\n[generators]\n" + generators)
        code, out = run(capsys, "master", model)
        assert code == 2
        assert f"status: refused\nerror: {message}\n" in out


class TestExitCodes:
    def test_pass_is_zero(self, capsys):
        code, out = run(capsys, "qme", MODELS / "sl2_adjoint.model")
        assert code == 0
        assert "status: pass" in out
        assert "residual: 0" in out

    def test_fail_is_one(self, capsys):
        code, out = run(capsys, "qme", MODELS / "solvable2.model")
        assert code == 1
        assert "status: fail" in out
        assert "residual: 2*i*hbar^2*c1" in out

    def test_refusal_is_two(self, capsys):
        code, out = run(capsys, "gauge-exp", MODELS / "gauge11.model",
                        "--p", "BAD", "--gauge", "F0")
        assert code == 2
        assert "status: refused" in out

    def test_nonstandard_damping_is_two(self, capsys, tmp_path):
        # a closed integrand whose exponent is not -1/2 x^2 plus a nilpotent part
        model = tmp_path / "damping.model"
        model.write_text((MODELS / "gauge11.model").read_text() + "T = x^2\n")
        code, out = run(capsys, "gauge-exp", model, "--p", "P0", "--t", "T", "--gauge", "F1")
        assert code == 2
        assert out == (f"command: gauge-exp\nmodel: {model}\nstatus: refused\n"
                       "error: exponent body x^2 is not the standard damping\n")

    def test_nonstandard_damping_on_the_boundary_is_two(self, capsys, tmp_path):
        # delta of P0 e^T is zero, so the boundary run integrates XI's instead
        model = tmp_path / "damping.model"
        model.write_text((MODELS / "gauge11.model").read_text() + "T = x^2\n")
        code, out = run(capsys, "gauge-exp", model, "--p", "XI", "--t", "T", "--gauge", "F1",
                        "--boundary")
        assert code == 2
        assert out == (f"command: gauge-exp\nmodel: {model}\nstatus: refused\n"
                       "error: exponent body x^2 is not the standard damping\n")

    @pytest.mark.parametrize("boundary", [(), ("--boundary",)], ids=["plain", "boundary"])
    @pytest.mark.parametrize("t, body", [("T", "x^2"), ("XI", "0")])
    def test_both_gauge_routes_check_every_exponent(self, t, body, boundary, capsys, tmp_path):
        # under F1, delta of P0 e^T is zero and XI restricts to 0: the boundary
        # route has nothing left to integrate, yet refuses as the plain route
        model = tmp_path / "damping.model"
        model.write_text((MODELS / "gauge11.model").read_text() + "T = x^2\n")
        code, out = run(capsys, "gauge-exp", model, "--p", "P0", "--t", t, "--gauge", "F1",
                        *boundary)
        assert code == 2
        assert out == (f"command: gauge-exp\nmodel: {model}\nstatus: refused\n"
                       f"error: exponent body {body} is not the standard damping\n")

    def test_missing_model_is_two(self, capsys):
        code, out = run(capsys, "qme", MODELS / "nope.model")
        assert code == 2

    def test_parse_error_is_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.model"
        bad.write_text("[lie]\nbasis = a b\n[brackets]\n[a,b] = 2*\n")
        code, out = run(capsys, "check-lie", bad)
        assert code == 2
        assert "status: refused" in out

    def test_odd_square_warns_at_its_position(self, capsys, tmp_path):
        # the odd square is zero, so S = x^2 passes; stdout is the same as
        # for the model without it
        odd = tmp_path / "odd.model"
        odd.write_text("[generators]\nx even field\nxp odd antifield x\n"
                       "[exprs]\nS = xp^2 + x^2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", OddPowerWarning)
            code = cli.main(["master", str(odd)])
        captured = capsys.readouterr()
        out = captured.out
        # one line per warning, with no source path or source line
        assert captured.err.splitlines() == [
            "warning: odd generator raised to a power >= 2 is zero (line 5, column 7)"]
        plain = tmp_path / "plain.model"
        plain.write_text(odd.read_text().replace("xp^2 + ", ""))
        assert code == 0 and "status: pass" in out
        assert out.replace(str(odd), "") == run(capsys, "master", plain)[1].replace(str(plain), "")

    def test_odd_square_warning_in_a_child_process(self, tmp_path):
        # under the interpreter's own warning filters and format, too
        odd = tmp_path / "odd.model"
        odd.write_text("[generators]\nx even field\nxp odd antifield x\n"
                       "[exprs]\nS = xp^2 + x^2\n")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-m", "bvcalc.cli", "master", str(odd)],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0 and "status: pass" in proc.stdout
        assert proc.stderr == ("warning: odd generator raised to a power >= 2 is zero "
                               "(line 5, column 7)\n")


class TestHostileInput:
    """Input that once crashed the CLI must be refused: exit 2, no traceback."""

    def run_child(self, model):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        return subprocess.run([sys.executable, "-m", "bvcalc.cli", "master", str(model)],
                              capture_output=True, text=True, env=env, timeout=60)

    def assert_refused(self, proc, message):
        assert proc.returncode == 2
        assert "Traceback" not in proc.stdout + proc.stderr
        assert "status: refused" in proc.stdout
        error = [ln for ln in proc.stdout.splitlines() if ln.startswith("error:")]
        assert len(error) == 1 and message in error[0]

    def test_deeply_nested_parentheses(self, tmp_path):
        model = tmp_path / "deep.model"
        model.write_text("[generators]\nx even field\nxp odd antifield x\n[exprs]\n"
                         "S = " + "(" * 3000 + "x" + ")" * 3000 + "\n")
        self.assert_refused(self.run_child(model),
                            "parentheses nested deeper than 100 (line 5, column 105)")

    def test_invalid_utf8(self, tmp_path):
        model = tmp_path / "bytes.model"
        text = b"[generators]\nx even field\nxp odd antifield x\n[exprs]\nS = x\xff\n"
        # a byte-order mark moves neither the byte nor its line
        for prefix in (b"", b"\xef\xbb\xbf"):
            model.write_bytes(prefix + text)
            self.assert_refused(self.run_child(model), "invalid UTF-8 byte 0xff (line 5)")

    def test_huge_exponent(self, tmp_path):
        model = tmp_path / "power.model"
        model.write_text("[generators]\nx even field\nxp odd antifield x\n[exprs]\n"
                         "S = x^1000000\n")
        self.assert_refused(self.run_child(model),
                            "exponent larger than 1000 (line 5, column 7)")

    def test_power_past_work_bound(self, tmp_path):
        model = tmp_path / "power.model"
        model.write_text("[generators]\nx even field\nxp odd antifield x\n[exprs]\n"
                         "S = (x+xp*x+1)^1000\n")
        start = time.perf_counter()
        proc = self.run_child(model)
        assert time.perf_counter() - start < 5     # a child start included
        self.assert_refused(proc, "power needs more than 200000 term products "
                                  "(line 5, column 15)")

    def test_product_past_work_bound(self, tmp_path):
        model = tmp_path / "product.model"
        model.write_text("[generators]\nx even field\ny even field\nxp odd antifield x\n"
                         "yp odd antifield y\n[exprs]\n"
                         "S = (x+y+1)^30*(x+y+1)^30*(x+y+1)^30\n")
        start = time.perf_counter()
        proc = self.run_child(model)
        assert time.perf_counter() - start < 5     # a child start included
        self.assert_refused(proc, "product needs more than 200000 term products "
                                  "(line 7, column 15)")

    def test_power_within_work_bound(self, tmp_path, capsys):
        # the largest generated power model of the benchmark, and (x+1)^200
        model = tmp_path / "power.model"
        model.write_text("[generators]\nx even field\ny even field\nth odd field\n"
                         "xp odd antifield x\nyp odd antifield y\nthp even antifield th\n\n"
                         "[exprs]\nS = (x+y+1)^16 + 2/3*(x-y)^10*x\nT = (x+1)^200\n")
        for action in ("S", "T"):
            code, out = run(capsys, "master", model, "--action", action)
            assert code == 0
            assert "residual: 0\n" in out

    @pytest.mark.parametrize("rhs, col", [("x*" + "9" * 5000, 7),
                                          ("x*1/" + "9" * 5000, 9),
                                          ("x*-" + "9" * 5000, 8)])
    def test_number_literal_past_int_digit_limit(self, tmp_path, rhs, col):
        model = tmp_path / "digits.model"
        model.write_text("[generators]\nx even field\nxp odd antifield x\n[exprs]\n"
                         f"S = {rhs}\n")
        self.assert_refused(self.run_child(model),
                            f"number literal too long (5000 digits) (line 5, column {col})")

    def test_answer_past_int_digit_limit_is_reported(self, tmp_path, capsys):
        # the x-derivative at x=10^1000 is 2*10^5000, past str(int)'s default
        # limit, though no coefficient or point value passes 4300 digits
        model = tmp_path / "wide.model"
        model.write_text("[generators]\nx even field\nxp odd antifield x\n[exprs]\n"
                         "S = (10^1000)^4*x^2\n")
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out = run(capsys, "onshell", model, "--action", "S", "--point", "x=10^1000")
        assert code == 1
        assert "status: fail" in out
        assert f"d/dx = 2{'0' * 5000}\n" in out
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def subcommands() -> dict:
    """Each command name of ``build_parser()`` with its subparser."""
    parser = cli.build_parser()
    return next(a.choices for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))


def test_each_command_is_declared_with_its_handler():
    commands = subcommands()
    for name, parser in commands.items():
        assert parser.get_default("handler") is getattr(cli, "_cmd_" + name.replace("-", "_"))
    handlers = {n for n in vars(cli) if n.startswith("_cmd_")}
    assert handlers == {"_cmd_" + name.replace("-", "_") for name in commands}


def test_readme_cli_table_lists_every_command():
    readme = (MODELS.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    table = section.split("| command |", 1)[1].split("\n\n", 1)[0]
    listed = re.findall(r"^\| `([a-z-]+)` \|", table, re.M)
    assert sorted(listed) == sorted(subcommands()) and len(set(listed)) == len(listed)


class TestInternalError:
    """An exception no handler expects exits 3 with one stderr line."""

    def test_crash_exits_three_without_traceback(self):
        script = ("import sys; from bvcalc import cli\n"
                  "def crash(model, args):\n"
                  "    raise KeyError('no such entry')\n"
                  "cli._cmd_brst = crash\n"
                  f"sys.exit(cli.main(['brst', {str(MODELS / 'sl2.model')!r}]))\n")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode == 3
        assert "Traceback" not in proc.stdout + proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == ["internal error: KeyError: 'no such entry'"]

    @pytest.mark.parametrize("command, target", [
        ("check-lie", "bvcalc.lie.jacobi_check"),
        ("qme", "bvcalc.bv.BVSpace.classical_master_residual"),
        ("ce-cohomology", "bvcalc.lie.ce_cohomology_dims"),
        ("onshell", "bvcalc.bv.BVSpace.antifield_report"),
    ])
    def test_library_value_error_exits_three(self, command, target, monkeypatch, capsys):
        # a ValueError from inside a computation is a fault, not a refusal
        def fault(*args, **kwargs):
            raise ValueError("library fault")
        monkeypatch.setattr(target, fault)
        code = cli.main([command, str(MODELS / "sl2_adjoint.model")])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.splitlines() == ["internal error: ValueError: library fault"]


@pytest.mark.parametrize("command", ["master", "qme", "hbar-seq", "onshell", "omega-square"])
@pytest.mark.parametrize("model", sorted(MODELS.glob("*.model")), ids=lambda path: path.name)
def test_no_command_takes_a_self_bracket_through_bracket(command, model, capsys):
    expected = run(capsys, command, model)
    with refusing_self_brackets():
        assert run(capsys, command, model) == expected


class TestPreconditions:
    """Input the library rejects with a ValueError is refused (exit 2),
    checked before the computation it guards."""

    MODEL = ("[generators]\nx even field\nth odd field\nxp odd antifield x\n"
             "thp even antifield th\nz odd plain\nw even plain\n\n[exprs]\n"
             "S = x^2 + xp*x*th\nODD = th\nMIX = x + th\nPZ = z*th\nPW = w*th\n"
             "F1 = th*x\n")

    @pytest.mark.parametrize("args, message", [
        (["master", "--action", "ODD"], "an action must be even"),
        (["qme", "--action", "MIX"], "polynomial is not parity-homogeneous"),
        (["hbar-seq", "--action", "ODD"], "an action must be even"),
        (["omega-square", "--action", "ODD"], "an action must be even"),
        (["onshell", "--action", "ODD"], "an action must be even"),
        (["onshell", "--point", "th=1"], "th is not an even field coordinate"),
        (["onshell", "--point", "w=1"], "w is not an even field coordinate"),
        (["onshell", "--point", "zz=1"], "unknown generator 'zz'"),
        (["gauge-exp", "--p", "S", "--t", "ODD", "--gauge", "F1"],
         "exponent 'ODD': exponent must be even"),
        (["gauge-exp", "--p", "S", "--t", "MIX", "--gauge", "F1"],
         "exponent 'MIX': polynomial is not parity-homogeneous"),
        (["gauge-exp", "--p", "PZ", "--gauge", "F1"],
         "odd generator present in a Gaussian moment"),
        (["gauge-exp", "--p", "PW", "--gauge", "F1"], "w is not an even field"),
        # each --gauge name is read and checked under its own name
        (["gauge-exp", "--p", "F1", "--gauge", "NOPE"],
         "gauge 'NOPE': model has no expression named 'NOPE'"),
        (["gauge-exp", "--p", "F1", "--gauge", "MIX"],
         "gauge 'MIX': polynomial is not parity-homogeneous"),
        (["gauge-exp", "--p", "F1", "--gauge", "S"],
         "gauge 'S': gauge fermion depends on antifields"),
        (["onshell", "--point", "x=1,x=2"], "coordinate x is given twice in the point"),
        # a point value is a constant expression of the grammar, not a float
        (["onshell", "--point", "x=0.5"], "bad rational '0.5' in point"),
        (["onshell", "--point", "x=1e1000000"], "bad rational '1e1000000' in point"),
        # the same 10^1000000 in the grammar passes its coefficient digit bound
        (["onshell", "--point", "x=10^1000^1000"], "bad rational '10^1000^1000' in point"),
    ])
    def test_refused(self, args, message, tmp_path, capsys):
        model = tmp_path / "plain.model"
        model.write_text(self.MODEL)
        start = time.perf_counter()
        code, out = run(capsys, args[0], model, *args[1:])
        assert time.perf_counter() - start < 1
        assert code == 2
        assert f"status: refused\nerror: {message}\n" in out

    @pytest.mark.parametrize("args, message", [
        (["linf", "models/sl2.model", "--nmax", "0"], "n_max must be at least 1"),
        (["ce-cohomology", "models/sl2.model", "--p", "1"], "p = 1 needs a module"),
        (["bv-identities", "models/gauge11.model", "--count", "0"], "count must be at least 1"),
        (["bv-identities", "models/gauge11.model", "--count", "-5"], "count must be at least 1"),
        (["omega-square", "models/gauge11.model", "--count", "0"], "count must be at least 1"),
        (["omega-square", "models/gauge11.model", "--count", "-5"], "count must be at least 1"),
        (["bv-identities", "models/gauge11.model", "--count", "1001"], "count must be at most 1000"),
        (["omega-square", "models/gauge11.model", "--count", str(10 ** 18)],
         "count must be at most 1000"),
    ])
    def test_refused_on_fixture(self, args, message, capsys):
        code, out = run(capsys, args[0], MODELS.parent / args[1], *args[2:])
        assert code == 2
        assert f"status: refused\nerror: {message}\n" in out

    def test_nmax_bound(self, capsys):
        code, out = run(capsys, "linf", MODELS / "sl2.model", "--nmax", "1000")
        assert code == 0
        assert "row 1000: 0" in out
        for nmax in ("1001", str(10 ** 18)):
            start = time.perf_counter()
            code, out = run(capsys, "linf", MODELS / "sl2.model", "--nmax", nmax)
            assert time.perf_counter() - start < 1
            assert code == 2
            assert "status: refused\nerror: n_max must be at most 1000\n" in out

    @pytest.mark.parametrize("nmax, message", [("0", "n_max must be at least 1"),
                                               ("1001", "n_max must be at most 1000")])
    def test_nmax_refused_before_squaring(self, nmax, message, capsys, monkeypatch):
        def refuse(self):
            raise AssertionError("D was squared before --nmax was checked")
        monkeypatch.setattr(Derivation, "square_residual", refuse)
        path = MODELS / "sl2.model"
        code, out = run(capsys, "linf", path, "--nmax", nmax)
        assert code == 2
        assert out == f"command: linf\nmodel: {path}\nstatus: refused\nerror: {message}\n"

    def test_linf_needs_lie_before_nmax(self, capsys):
        path = MODELS / "gauge11.model"
        code, out = run(capsys, "linf", path, "--nmax", "0")
        assert code == 2
        assert out == (f"command: linf\nmodel: {path}\nstatus: refused\n"
                       "error: this command needs a [lie] model\n")

    @pytest.mark.parametrize("text, p, check, message", [
        ("[lie]\nbasis = a b c\n[brackets]\n[a,b] = c\n[b,c] = a\n[a,c] = a\n", "0",
         "check-lie", "Jacobi fails at triple (1,2,3), so d^2 != 0 (see check-lie)"),
        ("[lie]\nbasis = a b\nmodule = u w\n[brackets]\n[a,b] = b\n[rep]\na.u = w\n"
         "b.u = u\n", "1",
         "check-rep", "not a representation at pair (1,2), so d^2 != 0 (see check-rep)"),
    ])
    def test_ce_cohomology_refuses_d_squared_nonzero(self, text, p, check, message,
                                                      tmp_path, capsys):
        model = tmp_path / "bad.model"
        model.write_text(text)
        code, out = run(capsys, check, model)
        assert code == 1
        code, out = run(capsys, "ce-cohomology", model, "--p", p)
        assert code == 2
        assert f"status: refused\nerror: {message}\n" in out



GENERATORS = "[generators]\nx even field\nxp odd antifield x\n"
LIE = "[lie]\nbasis = a\nmodule = v\n"


@pytest.mark.parametrize("text, args, message", [
    ("[generators]\nx even\n", ["master"],
     "generator lines look like 'name parity role [field]' (line 2)"),
    ("[generators]\n1x even field\n", ["master"], "bad generator name '1x' (line 2)"),
    # a name the expression tokenizer cannot read is refused where it is declared
    ("[generators]\nξ even field\n", ["master"], "bad generator name 'ξ' (line 2)"),
    ("[lie]\nbasis = a ξ\n", ["check-lie"],
     "basis names must be distinct identifiers (line 2)"),
    ("[lie]\nbasis = a\nmodule = v ξ\n", ["check-lie"],
     "module names must be distinct identifiers (line 3)"),
    ("[generators]\nx evn field\n", ["master"],
     "parity must be 'even' or 'odd', not 'evn' (line 2)"),
    ("[generators]\nx even ghost\n", ["master"],
     "role must be field, antifield or plain (line 2)"),
    ("[generators]\nx even field\nxp odd antifield\n", ["master"],
     "antifield lines name their field: 'name parity antifield fieldname' (line 3)"),
    ("[generators]\nx even field x\n", ["master"], "unexpected trailing word 'x' (line 2)"),
    (GENERATORS + "[brackets]\n[a,b] = a\n", ["master"],
     "[brackets] requires a [lie] section (line 5)"),
    (GENERATORS + "[rep]\na.v = v\n", ["master"], "[rep] requires a [lie] section (line 5)"),
    (GENERATORS + "[exprs]\nS x^2\n", ["master"],
     "expression lines look like 'name = expr' (line 5)"),
    (GENERATORS + "[exprs]\n2S = x^2\n", ["master"], "bad expression name '2S' (line 5)"),
    (GENERATORS + "[exprs]\nξ = x^2\n", ["master"], "bad expression name 'ξ' (line 5)"),
    (GENERATORS + "[exprs]\nS = x^2\nS = x\n", ["master"],
     "expression 'S' is given twice, first at line 5 (line 6)"),
    (GENERATORS + "[exprs]\nS = 10^1000^1000*x\n", ["master"],
     "in expression 'S': power has a coefficient of more than 4300 digits (line 5, column 12)"),
    ("[lie]\nmodule = v\n", ["check-lie"], "[lie] needs a 'basis = name...' line (line 2)"),
    # a section with no entries is named by its header's line
    (GENERATORS + "[rep]\n", ["master"], "[rep] requires a [lie] section (line 4)"),
    (GENERATORS + "\n[brackets]\n# none\n", ["master"],
     "[brackets] requires a [lie] section (line 5)"),
    ("# a Lie model\n[lie]\n[brackets]\n", ["check-lie"],
     "[lie] needs a 'basis = name...' line (line 2)"),
    (LIE + "[rep]\nb.v = v\n", ["check-rep"], "unknown basis vector 'b' (line 5)"),
    (LIE + "[rep]\na.w = v\n", ["check-rep"], "unknown module coordinate 'w' (line 5)"),
    (GENERATORS + "[exprs]\n\n[exprs]\n", ["master"],
     "section [exprs] is given twice, first at line 4 (line 6)"),
    ("[exprs]\nS = 1\n", ["master"], "a model needs exactly one of [lie] or [generators]"),
    ("[lie]\nbasis = a\nx = a\n", ["check-lie"], "unknown [lie] entry 'x' (line 3)"),
    ("[lie]\nbasis = a b\n[brackets]\n[a] = b\n", ["check-lie"],
     "bracket lines look like '[a,b] = expr' (line 4)"),
    ("# header next\n[nope]\n", ["master"], "unknown section [nope] (line 2)"),
    ("\nx even field\n[generators]\n", ["master"],
     "content before the first section header (line 2)"),
    ("[lie]\nbasis = a b\n[brackets]\n[a,q] = b\n", ["check-lie"],
     "unknown basis vector 'q' (line 4)"),
    ("[lie]\nbasis = a b\n[brackets]\n[a,b] = a*b\n", ["check-lie"],
     "bracket [a,b] must be linear in the basis (line 4)"),
    (GENERATORS, ["master", "--action", "S"], "model has no expression named 'S'"),
    (GENERATORS, ["master"], "no action: give --action or name an expression 'S'"),
    (GENERATORS + "[exprs]\nS = x^2\n", ["onshell", "--point", "x"],
     "bad point syntax 'x'; use 'x=0,y=1/2'"),
    (GENERATORS + "[exprs]\nS = x^2\n", ["onshell", "--point", "x=1/0"],
     "bad rational '1/0' in point"),
    (GENERATORS + "[exprs]\nP = 1\n", ["gauge-exp", "--p", "P"],
     "give at least one --gauge expression name"),
], ids=["generator-word-count", "generator-name", "generator-name-non-ascii",
        "basis-name-non-ascii", "module-name-non-ascii", "generator-parity",
        "generator-role", "antifield-without-field", "generator-trailing-word",
        "brackets-without-lie", "rep-without-lie", "expr-without-equals", "expr-name",
        "expr-name-non-ascii", "expr-repeated", "expr-coefficient-digits",
        "lie-without-basis", "empty-rep-without-lie", "empty-brackets-without-lie",
        "empty-lie", "rep-unknown-vector", "rep-unknown-coordinate", "section-repeated",
        "neither-lie-nor-generators", "lie-unknown-entry", "bracket-without-comma",
        "section-unknown", "content-before-header", "bracket-unknown-vector",
        "bracket-not-linear",
        "flag-names-missing-expr", "no-action", "point-syntax", "point-rational",
        "gauge-exp-without-gauge"])
def test_refusal_names_its_cause(text, args, message, tmp_path, capsys):
    model = tmp_path / "refused.model"
    model.write_text(text, encoding="utf-8")
    code, out = run(capsys, args[0], model, *args[1:])
    assert code == 2
    assert out == (f"command: {args[0]}\nmodel: {model}\nstatus: refused\n"
                   f"error: {message}\n")


class TestCommands:
    def test_check_lie_abelian(self, capsys):
        code, out = run(capsys, "check-lie", MODELS / "abelian.model")
        assert code == 0

    def test_check_rep(self, capsys):
        code, out = run(capsys, "check-rep", MODELS / "sl2_adjoint.model")
        assert code == 0
        assert "violations: 0" in out

    def test_brst_images(self, capsys):
        code, out = run(capsys, "brst", MODELS / "solvable2.model")
        assert code == 0
        assert "delta(c1): 0" in out
        assert "delta(c2): c1*c2" in out

    def test_brst_images_with_module(self, capsys):
        code, out = run(capsys, "brst", MODELS / "sl2_adjoint.model")
        assert code == 0
        assert "delta(vh):" in out and "delta(c1):" in out

    def test_linf(self, capsys):
        code, out = run(capsys, "linf", MODELS / "sl2.model", "--nmax", "3")
        assert code == 0
        assert "row 3: 0" in out

    def test_linf_row_with_terms(self, capsys, tmp_path):
        # [a,b] = c, [b,c] = a, [a,c] = a fails Jacobi: D^2(c3) is cubic
        model = tmp_path / "nonjacobi.model"
        model.write_text("[lie]\nbasis = a b c\n[brackets]\n[a,b] = c\n[b,c] = a\n[a,c] = a\n")
        code, out = run(capsys, "linf", model)
        assert code == 1
        assert out.endswith("row 2: 0\nrow 3 (c3): -1*c1*c2*c3\nsquare_zero: false\n")

    @pytest.mark.parametrize("name", ["abelian", "sl2", "sl2_adjoint", "solvable2"])
    @pytest.mark.parametrize("flags", [(), ("--nmax", "5")], ids=["default", "nmax5"])
    def test_linf_squares_once(self, name, flags, capsys, monkeypatch):
        # one Derivation.apply per generator image: the square is taken once
        calls = []
        real = Derivation.apply

        def spy(self, poly):
            calls.append(poly)
            return real(self, poly)
        monkeypatch.setattr(Derivation, "apply", spy)
        path = MODELS / f"{name}.model"
        code, out = run(capsys, "linf", path, *flags)
        assert code == 0 and "square_zero: true" in out
        lm = load_model(str(path)).lie
        assert len(calls) == lm.dim + lm.module_dim

    def test_ce_cohomology(self, capsys):
        code, out = run(capsys, "ce-cohomology", MODELS / "sl2.model")
        assert code == 0
        assert "dims: (1, 0, 0, 1)" in out
        code, out = run(capsys, "ce-cohomology", MODELS / "solvable2.model")
        assert "dims: (1, 1, 0)" in out

    def test_bv_identities(self, capsys):
        code, out = run(capsys, "bv-identities", MODELS / "sl2.model",
                        "--seed", "3", "--count", "8")
        assert code == 0
        assert "seven_terms: ok" in out

    def test_master(self, capsys):
        code, out = run(capsys, "master", MODELS / "sl2_adjoint.model")
        assert code == 0

    def test_master_noninvariant_action_fails(self, capsys, tmp_path):
        text = (MODELS / "sl2_adjoint.model").read_text()
        model = tmp_path / "bad_action.model"
        model.write_text(text.replace("S0 = vh^2 + 4*ve*vf", "S0 = ve"))
        code, out = run(capsys, "master", model)
        assert code == 1

    def test_hbar_seq(self, capsys):
        code, out = run(capsys, "hbar-seq", MODELS / "solvable2.model")
        assert code == 1
        assert "R_2: 2*i*c1" in out

    def test_onshell(self, capsys):
        code, out = run(capsys, "onshell", MODELS / "sl2_adjoint.model",
                        "--point", "vh=0,ve=0,vf=0")
        assert code == 0
        assert "onshell residual 0" in out

    @pytest.mark.parametrize("short, full", [("vh=1", "ve=0,vf=0,vh=1"),
                                             ("ve=0", "ve=0,vf=0,vh=0")])
    def test_onshell_point_leaves_out_zeros(self, short, full, capsys):
        # an even field the point leaves out is 0; only the label differs
        reports = [run(capsys, "onshell", MODELS / "sl2_adjoint.model", "--point", point)
                   for point in (short, full)]
        assert reports[0][0] == reports[1][0]
        assert reports[0][1].replace(f"point {short}", f"point {full}") == reports[1][1]
        assert f"point {short}" in reports[0][1]

    def test_onshell_generator_model(self, capsys):
        # gauge11 declares S = x^2 + xp*x*th: first order in antifields
        code, out = run(capsys, "onshell", MODELS / "gauge11.model",
                        "--point", "x=0")
        assert code == 0
        code, out = run(capsys, "onshell", MODELS / "gauge11.model",
                        "--point", "x=1")
        assert code == 1
        assert "not critical" in out
        # a point value is a constant expression, reported as its rational
        code, out = run(capsys, "onshell", MODELS / "gauge11.model",
                        "--point", "x=(1/2)^2")
        assert code == 1
        assert "point x=1/4: not critical: d/dx = 1/2\n" in out

    def test_omega_square_generator_model(self, capsys):
        code, out = run(capsys, "omega-square", MODELS / "gauge11.model",
                        "--seed", "4", "--count", "8")
        assert code == 0
        assert "identity: ok" in out

    def test_omega_square(self, capsys):
        code, out = run(capsys, "omega-square", MODELS / "solvable2.model",
                        "--seed", "1", "--count", "10")
        assert code == 0
        assert "identity: ok" in out

    def test_gauge_exp(self, capsys):
        code, out = run(capsys, "gauge-exp", MODELS / "gauge11.model",
                        "--p", "P0", "--gauge", "F0", "--gauge", "F1",
                        "--gauge", "F2", "--gauge", "F3")
        assert code == 0
        assert "all_equal: true" in out

    def test_gauge_exp_boundary(self, capsys):
        code, out = run(capsys, "gauge-exp", MODELS / "gauge11.model",
                        "--p", "XI", "--gauge", "F0", "--gauge", "F2",
                        "--boundary")
        assert code == 0
        assert "all_zero: true" in out

    def test_trace_cond(self, capsys):
        code, out = run(capsys, "trace-cond", MODELS / "sl2.model")
        assert code == 0
        code, out = run(capsys, "trace-cond", MODELS / "solvable2.model")
        assert code == 1
        assert "trace: -1*c1" in out


NON_JACOBI = """[lie]
basis = a b c d

[brackets]
[a,b] = c
[b,c] = 2*d
[a,c] = b + 1/3*d
[c,d] = a
"""


def broken_sl2_adjoint() -> str:
    text = (MODELS / "sl2_adjoint.model").read_text()
    text = text.replace("e.vf = 2*vh\n", "e.vf = 2*vh + ve\n")
    return text.replace("f.ve = -2*vh\n", "f.ve = -3*vh\n")


class TestFailingReports:
    """check-lie, check-rep and master reports that fail, pinned detail by
    detail, and the passing ce-cohomology report of sl(2) with half-integer
    weights, which the weight filter holds as exact Fraction tuples."""

    CASES = {
        "check-lie": ("check-lie", NON_JACOBI, 1, [
            ("violations", "2"),
            ("triple (1,2,4)", "[1, 0, 0, 0]"),
            ("triple (2,3,4)", "[0, 0, 1, 0]"),
        ]),
        "check-rep": ("check-rep", broken_sl2_adjoint(), 1, [
            ("violations", "2"),
            ("pair (1,2)", "[[0, 0, 0]; [0, 0, -1]; [0, 0, 0]]"),
            ("pair (2,3)", "[[1, 0, -3]; [-1, -1, 0]; [0, 0, 0]]"),
        ]),
        # only t.va and e.va are given, so the pairs (t,e) and (e,f) fail on va
        "check-rep-partial": ("check-rep", "[lie]\nbasis = t e f\nmodule = va vb\n"
                              "[brackets]\n[t,e] = e\n[t,f] = -1*f\n[e,f] = 2*t\n"
                              "[rep]\nt.va = va\ne.va = vb\n", 1, [
            ("violations", "2"),
            ("pair (1,2)", "[[0, 0]; [2, 0]]"),
            ("pair (2,3)", "[[2, 0]; [0, 0]]"),
        ]),
        # {S,S} = 2(2 x th thp - x^2 xp) by hand
        "master": ("master", "[generators]\nx even field\nth odd field\nxp odd antifield x\n"
                   "thp even antifield th\n[exprs]\nS = xp*th + thp*x^2\n", 1, [
            ("residual", "4*x*th*thp - 2*x^2*xp"),
        ]),
        "ce-cohomology-half-sl2": ("ce-cohomology", "[lie]\nbasis = h e f\n[brackets]\n"
                                   "[h,e] = 1/2*e\n[h,f] = -1/2*f\n[e,f] = 4*h\n", 0, [
            ("dims", "(1, 0, 0, 1)"), ("H^0", "1"), ("H^1", "0"), ("H^2", "0"), ("H^3", "1"),
        ]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_text_report(self, capsys, tmp_path, case):
        command, text, exit_code, details = self.CASES[case]
        model = tmp_path / "report.model"
        model.write_text(text)
        code, out = run(capsys, command, model)
        assert code == exit_code
        expected = [f"command: {command}", f"model: {model}",
                    f"status: {('pass', 'fail')[code]}"]
        expected += [f"{key}: {value}" for key, value in details]
        assert out == "\n".join(expected) + "\n"

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_json_report(self, capsys, tmp_path, case):
        command, text, exit_code, details = self.CASES[case]
        model = tmp_path / "report.model"
        model.write_text(text)
        code, out = run(capsys, command, model, "--json")
        assert code == exit_code
        assert json.loads(out) == {
            "command": command, "model": str(model), "status": ("pass", "fail")[code],
            "details": [list(d) for d in details]}


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ("qme", "solvable2.model"),
        ("bv-identities", "sl2.model", "--seed", "5", "--count", "6"),
        ("omega-square", "sl2_adjoint.model", "--seed", "2", "--count", "5"),
        ("ce-cohomology", "sl2.model"),
        ("gauge-exp", "gauge11.model", "--p", "P0", "--gauge", "F1",
         "--gauge", "F3"),
    ])
    def test_byte_identical_reports(self, capsys, args):
        argv = [args[0], str(MODELS / args[1]), *args[2:]]
        cli.main(argv)
        first = capsys.readouterr().out
        cli.main(argv)
        second = capsys.readouterr().out
        assert first == second
        assert first  # sanity: something was printed

    @pytest.mark.parametrize("entry", GOLDEN, ids=lambda entry: " ".join(entry["argv"]))
    def test_recorded_fixture_run(self, capsys, monkeypatch, entry):
        # the argv paths are relative to the repository root
        monkeypatch.chdir(MODELS.parent)
        code, out = run(capsys, *entry["argv"])
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == \
            (entry["exit"], entry["sha256"])

    def test_json_mode(self, capsys):
        code, out = run(capsys, "qme", MODELS / "solvable2.model", "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["status"] == "fail"
        assert ["residual", "2*i*hbar^2*c1"] in payload["details"]
        cli.main(["qme", str(MODELS / "solvable2.model"), "--json"])
        assert capsys.readouterr().out == out


class TestImportFootprint:
    """A command loads only the modules it runs, read off sys.modules in a
    fresh interpreter after cli.main returns."""

    LEAN = {"dataclasses", "inspect", "json", "bvcalc.gauge", "bvcalc.identities",
            "bvcalc.randgen"}

    def loaded(self, *argv):
        """(new modules, exit code, stdout) of `from bvcalc import cli` and,
        given argv, of cli.main(argv) in a child; the module list is the
        last stdout line."""
        script = ("import sys\nbefore = set(sys.modules)\nfrom bvcalc import cli\n"
                  f"code = cli.main({list(argv)!r}) if {bool(argv)} else 0\n"
                  "print(' '.join(sorted(set(sys.modules) - before)))\n"
                  "sys.exit(code)\n")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=60, cwd=MODELS.parent)
        *report, modules = proc.stdout.splitlines()
        return set(modules.split()), proc.returncode, "\n".join(report) + "\n"

    def test_import_alone(self):
        modules, code, _ = self.loaded()
        assert code == 0 and "bvcalc.cli" in modules
        assert not modules & (self.LEAN | {"bvcalc.lie", "bvcalc.linalg"})

    def test_master_on_a_generator_model(self):
        modules, code, out = self.loaded("master", "models/gauge11.model")
        assert code == 1 and "status: fail" in out
        assert not modules & (self.LEAN | {"bvcalc.lie", "bvcalc.linalg"})
        assert {m for m in modules if m.startswith("bvcalc.")} == {
            "bvcalc.bv", "bvcalc.cli", "bvcalc.derivations", "bvcalc.modelfile",
            "bvcalc.parser", "bvcalc.scalars", "bvcalc.superalgebra"}

    def test_check_lie(self, tmp_path):
        # a UTF-8 byte-order mark before the first header is not content
        bom = tmp_path / "sl2.model"
        bom.write_bytes(b"\xef\xbb\xbf" + (MODELS / "sl2.model").read_bytes())
        for path in ("models/sl2.model", str(bom)):
            modules, code, out = self.loaded("check-lie", path)
            assert code == 0 and "status: pass\nviolations: 0\n" in out
            assert {"bvcalc.lie", "bvcalc.linalg"} <= modules
            assert not modules & self.LEAN

    def test_eigenbasis_loads_only_past_its_gate(self, tmp_path):
        # sl(2) has a diagonal element and 8 cochains; gl(3) under nine
        # shears has none and 512, so ce-cohomology rewrites it
        modules, code, _ = self.loaded("ce-cohomology", "models/sl2.model")
        assert code == 0 and "bvcalc.lie" in modules and "bvcalc._eigenbasis" not in modules
        model = change_basis(gl(3), [(0, 4, 1), (3, 1, -1), (8, 2, 1), (5, 0, -1), (2, 7, 1),
                                     (6, 3, 1), (1, 8, -1), (4, 6, 1), (7, 5, -1)])
        names = [f"g{k}" for k in range(9)]
        lines = ["[lie]", "basis = " + " ".join(names), "[brackets]"]
        lines += [f"[{names[j]},{names[k]}] = "
                  + " + ".join(f"{val}*{names[i]}" for (i, b, c), val in model.f.items()
                               if (b, c) == (j, k))
                  for j in range(9) for k in range(j + 1, 9)
                  if any((b, c) == (j, k) for _, b, c in model.f)]
        path = tmp_path / "sheared_gl3.model"
        path.write_text("\n".join(lines) + "\n")
        modules, code, out = self.loaded("ce-cohomology", str(path))
        assert code == 0 and "dims: (1, 1, 0, 1, 1, 1, 1, 0, 1, 1)" in out
        assert "bvcalc._eigenbasis" in modules

    def test_gauge_exp_loads_gauge(self):
        modules, code, out = self.loaded("gauge-exp", "models/gauge11.model",
                                         "--p", "P0", "--gauge", "F0", "--gauge", "F1")
        assert code == 0 and "all_equal: true" in out
        assert "bvcalc.gauge" in modules and "bvcalc.lie" not in modules

    def test_json_renders(self, capsys, monkeypatch):
        argv = ["qme", "models/solvable2.model", "--json"]
        modules, code, out = self.loaded(*argv)
        monkeypatch.chdir(MODELS.parent)
        assert (code, out) == run(capsys, *argv)
        assert json.loads(out)["status"] == "fail" and "json" in modules
