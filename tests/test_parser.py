import time
import warnings
from fractions import Fraction
from math import comb

import pytest

from bvcalc import (EVEN, ODD, OddPowerWarning, ParseError, Scalar,
                    parse_expression)
from bvcalc.parser import MAX_EXPONENT, MAX_LITERAL_DIGITS, MAX_NESTING, MAX_PRODUCT_WORK
from bvcalc.randgen import random_poly
from bvcalc.superalgebra import Context


@pytest.fixture
def ctx():
    return Context.plain([("x", EVEN), ("y", EVEN), ("c1", ODD), ("c2", ODD)])


class TestGrammar:
    def test_anticommutation_merges_terms(self, ctx):
        p = parse_expression("1/2*c1*c2 - 1/2*c2*c1", ctx)
        assert p == ctx.monomial(1, odd=["c1", "c2"])

    def test_scalars_and_powers(self, ctx):
        assert parse_expression("x^2 + hbar*i", ctx) == \
            ctx.monomial(1, {"x": 2}) + ctx.scalar(Scalar.hbar() * Scalar.i())
        assert parse_expression("2^3", ctx) == ctx.scalar(8)
        assert parse_expression("(x^2)^3", ctx) == ctx.monomial(1, {"x": 6})

    def test_rationals(self, ctx):
        assert parse_expression("-7/4", ctx) == ctx.scalar(Fraction(-7, 4))
        assert parse_expression("0 - 7/4", ctx) == ctx.scalar(Fraction(-7, 4))
        assert parse_expression("-1*x", ctx) == -ctx.gen("x")

    def test_odd_square_warns_and_vanishes(self, ctx):
        with pytest.warns(OddPowerWarning, match=r"\(line 1, column 3\)$"):
            assert parse_expression("c1^2", ctx).is_zero
        # the position is the '^' within the given line, as for a ParseError
        with pytest.warns(OddPowerWarning, match=r"\(line 4, column 14\)$"):
            assert parse_expression("x + (-2/3*c2)^3", ctx, line=4) == ctx.gen("x")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert parse_expression("c1^1", ctx) == ctx.gen("c1")
            # no warning unless the base is a single odd generator term
            assert parse_expression("(c1*c2)^2", ctx).is_zero
            assert parse_expression("(c1 + x)^2", ctx) == ctx.monomial(1, {"x": 2}) + \
                2 * ctx.monomial(1, {"x": 1}, ["c1"])
            assert parse_expression("(x*c1)^2", ctx).is_zero

    def test_parenthesized(self, ctx):
        p = parse_expression("(x + c1)*(x - c1)", ctx)
        assert p == ctx.monomial(1, {"x": 2})

    @pytest.mark.parametrize("src", [
        "2 x",          # juxtaposition
        "x/2",          # '/' only inside rationals
        "q + 1",        # unknown identifier
        "x^-1",         # signed exponent
        "x +",          # dangling operator
        "(x",           # unbalanced
        "1/0",          # zero denominator
        "x ? 1",        # stray character
    ])
    def test_rejects(self, ctx, src):
        with pytest.raises(ParseError):
            parse_expression(src, ctx)

    def test_error_carries_position(self, ctx):
        with pytest.raises(ParseError) as err:
            parse_expression("x + q", ctx, line=3)
        assert err.value.line == 3
        assert err.value.col == 5

    def test_trailing_whitespace_ends_the_input(self, ctx):
        assert parse_expression("x + 1  ", ctx) == ctx.gen("x") + 1
        assert parse_expression("x\t\u3000\n", ctx) == ctx.gen("x")

    @pytest.mark.parametrize("src, char, col", [
        ("x +\u00a0$", "$", 5),           # after a no-break space
        ("x\u3000\u2003+ y?", "?", 7),    # after ideographic and em spaces
        ("\u2028\u00e9", "\u00e9", 2),    # a letter outside [A-Za-z_]
        ("\u2003\u0663", "\u0663", 2),    # a digit outside [0-9]
    ])
    def test_bad_character_after_unicode_whitespace(self, ctx, src, char, col):
        with pytest.raises(ParseError) as err:
            parse_expression(src, ctx, line=2)
        assert str(err.value) == f"unexpected character {char!r} (line 2, column {col})"
        assert (err.value.line, err.value.col) == (2, col)

    def test_nesting_limit(self, ctx):
        deepest = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
        assert parse_expression(deepest, ctx) == ctx.gen("x")
        src = "x + " + "(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1)
        with pytest.raises(ParseError) as err:
            parse_expression(src, ctx, line=4)
        assert err.value.line == 4
        assert err.value.col == len("x + ") + MAX_NESTING + 1
        # siblings do not add up: only the depth of one chain counts
        wide = "*".join(["(" * MAX_NESTING + "x" + ")" * MAX_NESTING] * 3)
        assert parse_expression(wide, ctx) == ctx.monomial(1, {"x": 3})

    def test_exponent_bound(self, ctx):
        assert MAX_EXPONENT >= 400
        assert parse_expression(f"x^{MAX_EXPONENT}", ctx) == \
            ctx.monomial(1, {"x": MAX_EXPONENT})
        assert parse_expression("x^0002", ctx) == ctx.monomial(1, {"x": 2})
        for exponent in (str(MAX_EXPONENT + 1), "1000000", "9" * 5000):
            src = "y + x^" + exponent
            with pytest.raises(ParseError, match="exponent larger than") as err:
                parse_expression(src, ctx, line=2)
            assert (err.value.line, err.value.col) == (2, len("y + x^") + 1)

    def test_power_work_bound_admits(self, ctx):
        x, y = ctx.gen("x"), ctx.gen("y")
        assert parse_expression("(x+1)^200", ctx) == (x + 1) ** 200
        wide = parse_expression("(x+1)^400", ctx)
        assert len(wide.terms) == 401
        # the monomial x^200: exponents of (x, y), no odd factor
        assert wide.terms[(200, 0), 0] == Scalar.of(comb(400, 200))
        assert parse_expression("(x+y+1)^16", ctx) == (x + y + 1) ** 16
        assert parse_expression("(x-y)^10*x", ctx) == (x - y) ** 10 * x
        assert parse_expression("(2*x*c1 + y)^1000", ctx) == \
            (2 * x * ctx.gen("c1") + y) ** 1000
        assert parse_expression("(x+1)^0", ctx) == ctx.one()
        assert parse_expression("(x+y)^1", ctx) == x + y

    def test_power_work_bound_refuses(self, ctx):
        # ~2k terms after k steps of 3-term products: the sum passes the
        # budget near k = 260, long before the exponent bound; the column is
        # that of the '^' whose expansion passes it
        src = "y^2 + (x+c1*x+1)^1000"
        start = time.perf_counter()
        with pytest.raises(ParseError, match=f"more than {MAX_PRODUCT_WORK} term products") as err:
            parse_expression(src, ctx, line=2)
        assert time.perf_counter() - start < 2
        assert (err.value.line, err.value.col) == (2, src.rindex("^") + 1)

    def test_product_work_bound_refuses(self, ctx):
        # each power spends 14,877 units; the first '*' would multiply 496 by
        # 496 terms, and the three-factor product used to parse for seconds
        src = "(x+y+1)^30*(x+y+1)^30*(x+y+1)^30"
        start = time.perf_counter()
        with pytest.raises(ParseError,
                           match=f"product needs more than {MAX_PRODUCT_WORK} term products") as err:
            parse_expression(src, ctx, line=2)
        assert time.perf_counter() - start < 2
        assert (err.value.line, err.value.col) == (2, src.index("*") + 1)

    @pytest.mark.parametrize("base", ["x+1", "1+hbar"])
    def test_power_of_two_terms_or_two_hbar_powers(self, ctx, base):
        # one term with two hbar powers has the size of two terms, so both
        # bases fit the budget at 400 and pass it at 1000, at the '^'
        n = 400
        value = parse_expression(f"({base})^{n}", ctx)
        assert value == parse_expression(base, ctx) ** n
        src = f"y + ({base})^1000"
        start = time.perf_counter()
        with pytest.raises(ParseError, match="power needs more than") as err:
            parse_expression(src, ctx, line=3)
        assert time.perf_counter() - start < 2
        assert (err.value.line, err.value.col) == (3, src.index("^") + 1)

    def test_hbar_product_chain_refused(self, ctx):
        # each power spends 90,298 units and the first '*' would multiply
        # two coefficients of 301 hbar powers each; counted by terms, the
        # chain cost 1,199 units and parsed to one 1,201-power coefficient
        src = "*".join(["(1+hbar)^300"] * 4)
        with pytest.raises(ParseError, match="product needs more than") as err:
            parse_expression(src, ctx)
        assert err.value.col == src.index("*") + 1

    def test_product_chain_shares_the_budget(self, ctx):
        # the k-th '*' of (x+1)*(x+1)*... costs 2(k+1), at most 1,402 here,
        # but the running total passes the budget at k = 446
        src = "*".join(["(x+1)"] * 700)
        with pytest.raises(ParseError, match="product needs more than") as err:
            parse_expression(src, ctx)
        assert err.value.col == 446 * len("(x+1)*")

    def test_powers_and_products_share_the_budget(self, ctx):
        # each alone fits: 160,398 + 10,098 for the powers, then 401 * 101
        # for the '*'; in the sum, 40,198 + 201 come before the 160,398
        src = "(x+1)^400*(y+1)^100"
        with pytest.raises(ParseError, match="product needs more than") as err:
            parse_expression(src, ctx)
        assert err.value.col == src.index("*") + 1
        src = "(y+1)^200*y + (x+1)^400"
        with pytest.raises(ParseError, match="power needs more than") as err:
            parse_expression(src, ctx)
        assert err.value.col == src.rindex("^") + 1

    def test_literal_digit_bound(self, ctx):
        widest = "9" * MAX_LITERAL_DIGITS
        assert parse_expression(f"{widest}*x", ctx) == ctx.monomial(int(widest), {"x": 1})
        wider = "9" * (MAX_LITERAL_DIGITS + 1)
        for src, col in ((f"{wider}*x", 1), (f"x + 1/{wider}", 7), ("x - " + "0" * 5000, 5)):
            with pytest.raises(ParseError, match="number literal too long") as err:
                parse_expression(src, ctx, line=3)
            assert (err.value.line, err.value.col) == (3, col)
        # a coefficient the grammar builds has the same bound, on its
        # numerator and its denominator, at the operator that passes it
        assert parse_expression("(10^1000)^4*10^299", ctx) == ctx.scalar(10 ** 4299)
        assert parse_expression("((1/10)^1000)^4*(1/10)^299", ctx) == \
            ctx.scalar(Fraction(1, 10 ** 4299))
        nines = "9" * 2151
        for src, what, col in (("10^1000^1000", "power", 8),
                               ("(10^1000)^4*10^300", "product", 12),
                               ("x*((1/10)^1000)^4*(1/10)^300", "product", 18),
                               (f"1/{nines} + 1/{nines[:-1]}8", "sum", 2155),
                               (f"x - 1/{nines} - 1/{nines[:-1]}8", "difference", 2159)):
            start = time.perf_counter()
            with pytest.raises(ParseError, match=f"{what} has a coefficient of more than "
                                                 f"{MAX_LITERAL_DIGITS} digits") as err:
                parse_expression(src, ctx, line=3)
            assert time.perf_counter() - start < 1
            assert (err.value.line, err.value.col) == (3, col)


class TestRoundTrip:
    def test_literals(self, ctx):
        for src in ("0", "1", "-1*c1", "x^2*c1*c2", "1/2 + 2*i*hbar"):
            p = parse_expression(src, ctx)
            assert parse_expression(str(p), ctx) == p

    def test_random_round_trip(self, ctx, rng):
        for _ in range(250):
            p = random_poly(rng, ctx, max_degree=5, terms=5, hbar_max=2)
            assert parse_expression(str(p), ctx) == p

    def test_rendering_deterministic(self, ctx, rng):
        for _ in range(50):
            p = random_poly(rng, ctx, max_degree=4, terms=4, hbar_max=1)
            q = parse_expression(str(p), ctx)
            assert str(q) == str(p)
