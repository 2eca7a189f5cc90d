"""Grammar fuzz tests.  Expression strings built from the parser's tokens
must end in a Poly or a ParseError with a column inside the line, and model
files built from the same pieces must give ``check-lie`` an exit code of 0,
1 or 2 and ``ce-cohomology`` one of 0 or 2 (2 whenever ``check-lie`` gives
1), with no traceback.  ``gauge-exp``, with and without ``--boundary``,
must exit 0, 1 or 2 with no traceback on drawn ``[generators]`` models of
gauge11's shape.  Each case has a deadline, so an input that runs away
fails the test; a sheared [lie] model with eigenvalues 10^30, which takes
the eigenbasis route of ``ce_cohomology_dims``, is one of the examples.

The term products of '*' and '^' are budgeted, weighted by the hbar powers
of each coefficient but not by its digits (``MAX_LITERAL_DIGITS`` bounds
those, not their cost), so literals here have at most 40 digits or are
past ``MAX_LITERAL_DIGITS`` (refused), exponents past 3 sit only on bases
whose coefficients stay small, and no base mixes hbar powers under them."""

import contextlib
import io
import re
import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from bvcalc import EVEN, ODD, OddPowerWarning, ParseError, Poly, cli, parse_expression  # noqa: E402
from bvcalc.parser import MAX_EXPONENT, MAX_LITERAL_DIGITS, MAX_NESTING  # noqa: E402
from bvcalc.superalgebra import Context  # noqa: E402

CTX = Context.plain([("x", EVEN), ("y", EVEN), ("c1", ODD), ("c2", ODD)])

literals = st.one_of(
    st.integers(0, 99).map(str),
    st.builds("{}/{}".format, st.integers(0, 99), st.integers(0, 9)),
    st.integers(0, 99).map("-{}".format),
    st.integers(10 ** 20, 10 ** 40).map(str),
    st.sampled_from(["9" * (MAX_LITERAL_DIGITS + 1), "1/" + "0" * (MAX_LITERAL_DIGITS + 1)]),
)
small_exponents = st.sampled_from(["0", "1", "2", "3", "03"])
big_exponents = st.sampled_from([str(MAX_EXPONENT - 1), str(MAX_EXPONENT),
                                 str(MAX_EXPONENT + 1), "9" * 30, "9" * 5000])
# (x+1) passes the product budget at a large exponent, in a fraction of a
# second; the rest fit
BIG_BASES = ["x", "c1", "i", "hbar", "(x+1)", "(2*x*c1 + y)", "(1+i)"]
NESTING = [1, 2, MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1]


def atoms(names):
    return st.one_of(st.sampled_from(list(names) + ["i", "hbar", "q"]), literals)


@st.composite
def expressions(draw, names=("x", "y", "c1", "c2"), depth=3):
    """A well-formed or nearly well-formed expression over names."""
    kind = draw(st.sampled_from(["atom", "atom", "sum", "product", "power",
                                 "parens", "nested", "big power"]) if depth else st.just("atom"))
    sub = expressions(names, depth - 1)
    if kind == "atom":
        return draw(atoms(names))
    if kind == "sum":
        return draw(sub) + draw(st.sampled_from(["+", " - ", " + -"])) + draw(sub)
    if kind == "product":
        return draw(sub) + draw(st.sampled_from(["*", " * ", " "])) + draw(sub)
    if kind == "power":
        return "(" + draw(sub) + ")^" + draw(small_exponents)
    if kind == "parens":
        return "(" + draw(sub) + ")"
    if kind == "nested":
        depth = draw(st.sampled_from(NESTING))
        return "(" * depth + draw(sub) + ")" * depth
    return draw(st.sampled_from(BIG_BASES)) + "^" + draw(big_exponents)


# at most 12 tokens, so a chain of '^' stays short
TOKENS = ["x", "y", "c1", "c2", "i", "hbar", "q", "0", "1", "2", "3", "٣",
          "+", "-", "*", "/", "^", "(", ")", "?", "é", " ", "\t"]
token_soup = st.builds(lambda parts, sep: sep.join(parts),
                       st.lists(st.sampled_from(TOKENS), max_size=12),
                       st.sampled_from(["", " "]))


def parse_outcome(src):
    """The Poly, or the ParseError with its position checked."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OddPowerWarning)
        try:
            out = parse_expression(src, CTX, line=7)
        except ParseError as exc:
            assert exc.line == 7 and 1 <= exc.col <= len(src) + 1
            return exc
    assert isinstance(out, Poly)
    return out


@hypothesis.settings(max_examples=200, deadline=5000)
@hypothesis.given(st.one_of(expressions(), token_soup))
def test_expression_ends_in_poly_or_parse_error(src):
    hypothesis.event(type(parse_outcome(src)).__name__)


@st.composite
def lie_model_files(draw):
    """Lie model text with drawn basis names, brackets (linear or not),
    rep entries, expressions and stray lines."""
    basis = draw(st.lists(st.sampled_from(["a", "b", "h", "e", "f"]), unique=True, min_size=3,
                          max_size=4)
                 | st.lists(st.sampled_from(["a", "hbar", "1a", "v"]), max_size=3))
    module = draw(st.lists(st.sampled_from(["v", "w", "a"]), unique=True, max_size=2))
    lines = ["[lie]", "basis = " + " ".join(basis)]
    if module:
        lines.append("module = " + " ".join(module))
    names = basis or ["a"]
    coeffs = st.sampled_from(["1", "-1", "2", "1/2", "-3/2"]) | literals
    linear = st.lists(st.tuples(coeffs, st.sampled_from(names)), min_size=1, max_size=3).map(
        lambda terms: " + ".join(f"{c}*{n}" for c, n in terms))
    lines.append("[brackets]")
    for _ in range(draw(st.integers(0, 4))):
        pool = draw(st.sampled_from([names, names, names, names + ["z"]]))
        lhs = "[{},{}]".format(*(draw(st.permutations(pool)) * 2))
        rhs = draw(draw(st.sampled_from([linear, linear, linear, expressions(tuple(names), 2)])))
        lines.append(f"{lhs} = {rhs}")
    if module and draw(st.booleans()):
        lines.append("[rep]")
        for _ in range(draw(st.integers(0, 3))):
            g, v = draw(st.sampled_from(names)), draw(st.sampled_from(module))
            lines.append(f"{g}.{v} = {draw(expressions(tuple(module), 1))}")
    if draw(st.booleans()):
        ghosts = tuple(f"c{k + 1}" for k in range(len(basis))) or ("c1",)
        lines.append("[exprs]")
        lines.append("S0 = " + draw(expressions(ghosts + tuple(module), 2)))
    stray = st.sampled_from(["", "# note", "[nope]", "[lie]", "[generators]", "x even field",
                             "= 1", "[a,a] = a", "basis = a b", "\t[a,b] = b", "a.v = v"])
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(stray))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "drawn.model"


def cli_report(command, model_path, *flags):
    """cli.main's exit code and stdout, after checking that the report is
    the command's and that nothing printed a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", OddPowerWarning)
        code = cli.main([command, str(model_path), *flags])
    assert code != cli.INTERNAL_ERROR, err.getvalue()
    assert "Traceback" not in out.getvalue() + err.getvalue()
    assert out.getvalue().startswith(f"command: {command}\n")
    return code, out.getvalue()


def run_cli(command, model_path, *flags):
    """``cli_report``'s exit code."""
    return cli_report(command, model_path, *flags)[0]


@hypothesis.settings(max_examples=150, deadline=5000)
@hypothesis.given(text=lie_model_files())
@hypothesis.example(text="[lie]\nbasis = a b e\n[brackets]\n[a,b] = e + a\n[b,e] = a\n"
                         "[e,a] = b\n")
def test_check_lie_exits_0_1_or_2_without_traceback(model_path, text):
    model_path.write_text(text, encoding="utf-8")
    code = run_cli("check-lie", model_path)
    hypothesis.event(f"exit {code}")
    assert code in (0, 1, 2)


# [g1, gk] = W gk for k = 2..8 with W = 10^30, in the basis g1, g1 + g2, g3,
# ..., g8 (test_lie.huge_ray): no basis vector acts diagonally, the complex
# has 256 cochains, and g1 has the eigenvalue W seven times
W = "1" + "0" * 30
HUGE_RAY = ("[lie]\nbasis = " + " ".join(f"g{k}" for k in range(1, 9)) + "\n[brackets]\n"
            + f"[g1,g2] = {W}*g2 - {W}*g1\n"
            + "".join(f"[g{j},g{k}] = {W}*g{k}\n" for j in (1, 2) for k in range(3, 9)))


@hypothesis.settings(max_examples=150, deadline=5000)
@hypothesis.given(text=lie_model_files())
@hypothesis.example(text="[lie]\nbasis = a b e\n[brackets]\n[a,b] = e + a\n[b,e] = a\n"
                         "[e,a] = b\n")
@hypothesis.example(text="[lie]\nbasis = a b\nmodule = v w\n[brackets]\n[a,b] = b\n[rep]\n"
                         "a.v = w\nb.v = v\n")
@hypothesis.example(text=HUGE_RAY)
def test_ce_cohomology_exits_0_or_2_without_traceback(model_path, text):
    """ce-cohomology ranks only a complex: a table that fails check-lie is
    refused, never reported as a failed or passed check."""
    model_path.write_text(text, encoding="utf-8")
    lie_code = run_cli("check-lie", model_path)
    for p in ("0", "1") if "\nmodule = " in text else ("0",):
        code = run_cli("ce-cohomology", model_path, "--p", p)
        hypothesis.event(f"p = {p}: exit {code}")
        assert code in (0, 2)
        if lie_code == 1:
            assert code == 2



def test_huge_eigenvalues_give_exact_dims(model_path):
    model_path.write_text(HUGE_RAY, encoding="utf-8")
    code, report = cli_report("ce-cohomology", model_path)
    assert code == 0 and "\ndims: (1, 1, 0, 0, 0, 0, 0, 0, 0)\n" in report


LIE_RUNS = (["check-rep"], ["brst"], ["linf"], ["trace-cond"], ["bv-identities", "--count", "3"])


@hypothesis.settings(max_examples=150, deadline=5000)
@hypothesis.given(text=lie_model_files())
@hypothesis.example(text="[lie]\nbasis = a b e\n[brackets]\n[a,b] = e + a\n[b,e] = a\n"
                         "[e,a] = b\n")
@hypothesis.example(text="[lie]\nbasis = a b\nmodule = v w\n[brackets]\n[a,b] = b\n[rep]\n"
                         "a.v = w\nb.v = v\n")
def test_lie_commands_exit_0_1_or_2_without_traceback(model_path, text):
    """check-rep, brst, linf, trace-cond and bv-identities --count 3 on a
    drawn [lie] model."""
    model_path.write_text(text, encoding="utf-8")
    for command, *flags in LIE_RUNS:
        code = run_cli(command, model_path, *flags)
        hypothesis.event(f"{command}: exit {code}")
        assert code in (0, 1, 2)


# gauge11's fields and antifields, plus a plain even w that no restriction
# removes and no Gaussian moment accepts and a plain odd u that no Berezin
# integral removes
GAUGE_MODEL = ("[generators]\nx even field\nth odd field\nxp odd antifield x\n"
               "thp even antifield th\nw even plain\nu odd plain\n[exprs]\n")
GAUGE_NAMES = ("x", "th", "xp", "thp", "w", "u")
# the same generators with w and u declared first
PLAIN_FIRST_MODEL = ("[generators]\nw even plain\nu odd plain\nx even field\nth odd field\n"
                     "xp odd antifield x\nthp even antifield th\n[exprs]\n")


@st.composite
def gauge_exp_runs(draw):
    """(model text, gauge-exp flags): a prefactor P, maybe an exponent T and
    one to three gauges F1..Fk, each a fixed expression that the integral
    accepts or one that it refuses, or a drawn one; T may be the standard
    damping plus a drawn part, and each gauge th or u times a drawn part,
    so that drawn inputs also reach the integral."""
    drawn = expressions(GAUGE_NAMES, 2)
    p = draw(st.sampled_from(["th", "x*th", "th*w", "u", "1", "x*xp*th"]) | drawn)
    t = draw(st.sampled_from(["-1/2*x^2", "-1/2*x^2 + xp*th*u", "x^2", "-1/2*x^2 + u*th"])
             | drawn.map("-1/2*x^2 + {}".format) | drawn)
    gauges = draw(st.lists(st.sampled_from(["0", "th*x", "-3*th*x", "th*w", "u", "xp", "x"])
                           | drawn.map("th*({})".format) | drawn.map("u*({})".format) | drawn,
                           min_size=1, max_size=3))
    lines = [f"P = {p}", f"T = {t}"] + [f"F{k} = {f}" for k, f in enumerate(gauges)]
    flags = ["--p", "P"] + (["--t", "T"] if draw(st.booleans()) else [])
    for k in range(len(gauges)):
        flags += ["--gauge", f"F{k}"]
    return GAUGE_MODEL + "\n".join(lines) + "\n", flags


@hypothesis.settings(max_examples=100, deadline=5000)
@hypothesis.given(run=gauge_exp_runs())
@hypothesis.example(run=(GAUGE_MODEL + "P = th\nT = x^2\nF0 = th*x\n",
                         ["--p", "P", "--t", "T", "--gauge", "F0"]))
@hypothesis.example(run=(GAUGE_MODEL + "P = th*w\nT = 0\nF0 = th*w\n",
                         ["--p", "P", "--gauge", "F0"]))
def test_gauge_exp_exits_0_1_or_2_without_traceback(model_path, run):
    text, flags = run
    model_path.write_text(text, encoding="utf-8")
    for boundary in ([], ["--boundary"]):
        code = run_cli("gauge-exp", model_path, *flags, *boundary)
        hypothesis.event(f"{' '.join(boundary) or 'plain'}: exit {code}")
        assert code in (0, 1, 2)


def order_free(stdout, model_path):
    """A gauge-exp report with its model path masked, and with the
    polynomials a refusal renders (an exponent body, a residual) masked
    too, since a polynomial lists its generators in declaration order."""
    text = stdout.replace(str(model_path), "<model>")
    text = re.sub(r"exponent body .* is not", "exponent body <T> is not", text)
    return re.sub(r"(?m)^residual: .*$", "residual: <residual>", text)


@hypothesis.settings(max_examples=100, deadline=5000)
@hypothesis.given(run=gauge_exp_runs())
@hypothesis.example(run=(GAUGE_MODEL + "P = th*x*w\nF0 = 0\n", ["--p", "P", "--gauge", "F0"]))
@hypothesis.example(run=(GAUGE_MODEL + "P = th*w^3 + th*u*x^2\nF0 = 0\n",
                         ["--p", "P", "--gauge", "F0"]))
def test_gauge_exp_does_not_hang_on_declaration_order(model_path, run):
    """Each drawn case again on the model with w and u declared first: the
    same exit code and the same report, up to ``order_free``."""
    text, flags = run
    model_path.write_text(text, encoding="utf-8")
    plain_first = model_path.with_name("plain_first.model")
    plain_first.write_text(text.replace(GAUGE_MODEL, PLAIN_FIRST_MODEL), encoding="utf-8")
    for boundary in ([], ["--boundary"]):
        code, out = cli_report("gauge-exp", model_path, *flags, *boundary)
        hypothesis.event(f"{' '.join(boundary) or 'plain'}: exit {code}")
        again = cli_report("gauge-exp", plain_first, *flags, *boundary)
        assert (code, order_free(out, model_path)) == (again[0], order_free(again[1], plain_first))


ACTION_RUNS = (["master"], ["qme"], ["hbar-seq"], ["onshell"], ["omega-square", "--count", "3"])


@hypothesis.settings(max_examples=150, deadline=5000)
@hypothesis.given(action=st.sampled_from(["x^2 + xp*x*th", "xp*th + thp*x^2", "hbar*thp*u",
                                          "w*x^2 + xp*x*th"]) | expressions(GAUGE_NAMES, 2))
def test_action_commands_exit_0_1_or_2_without_traceback(model_path, action):
    """master, qme, hbar-seq, onshell and omega-square on a drawn action S
    over gauge11's generators with the plain w and u."""
    model_path.write_text(GAUGE_MODEL + f"S = {action}\n", encoding="utf-8")
    for command, *flags in ACTION_RUNS:
        code = run_cli(command, model_path, "--action", "S", *flags)
        hypothesis.event(f"{command}: exit {code}")
        assert code in (0, 1, 2)
