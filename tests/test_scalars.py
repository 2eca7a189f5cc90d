from fractions import Fraction
from math import gcd

import pytest

from bvcalc import Scalar

from oracles import FractionScalar


def test_zero_is_empty_sum():
    assert Scalar.zero().is_zero
    assert Scalar.of(3) - Scalar.of(3) == Scalar.zero()
    assert not (Scalar.of(3) - Scalar.of(3))


def test_exact_rational_arithmetic():
    a = Scalar.of(Fraction(1, 3))
    b = Scalar.of(Fraction(1, 6))
    assert a + b == Scalar.of(Fraction(1, 2))
    assert a * b == Scalar.of(Fraction(1, 18))


def test_i_squares_to_minus_one():
    assert Scalar.i() * Scalar.i() == Scalar.of(-1)


def test_laurent_powers_multiply():
    # hbar^-2 is needed by the exponential-coefficient identities
    s = Scalar.hbar(-2) * Scalar.hbar(3)
    assert s == Scalar.hbar(1)
    assert [k for k, _ in (Scalar.hbar(1) * Fraction(1, 2)).split_hbar()] == [1]
    assert len(s + Scalar.i() + Scalar.hbar(-1)) == 3
    assert len(Scalar.zero()) == 0


def test_fractional_hbar_power_is_refused():
    # once truncated to hbar^2
    with pytest.raises(TypeError, match="hbar power must be an int"):
        Scalar.hbar(2.5)


def test_float_hbar_power_key_is_refused():
    # once truncated to hbar^1
    with pytest.raises(TypeError, match="hbar power must be an int"):
        Scalar({1.7: (1, 0)})


def test_float_part_is_refused():
    # once the binary value 3602879701896397/36028797018963968
    with pytest.raises(TypeError, match="int or Fraction"):
        Scalar({0: (0.1, 0)})
    with pytest.raises(TypeError, match="int or Fraction"):
        Scalar({0: (1, 0.5)})


def test_string_part_is_refused():
    with pytest.raises(TypeError, match="int or Fraction"):
        Scalar({0: ("1/3", 0)})


def test_bool_is_refused():
    # bool subclasses int; each of these once gave hbar, 1 or 1 silently
    with pytest.raises(TypeError, match="hbar power must be an int"):
        Scalar.hbar(True)
    with pytest.raises(TypeError, match="int or Fraction"):
        Scalar({0: (True, False)})
    with pytest.raises(TypeError, match="cannot make a Scalar"):
        Scalar.of(True)
    assert Scalar.one() != True


@pytest.mark.parametrize("product", [lambda: Scalar.hbar() * True, lambda: True * Scalar.hbar(),
                                     lambda: Scalar.hbar() * False, lambda: False * Scalar.hbar()],
                         ids=["times-true", "true-times", "times-false", "false-times"])
def test_product_with_a_bool_is_refused(product):
    # as with +, a bool is not taken for the int 1 or 0
    with pytest.raises(TypeError):
        product()


def test_negative_hbar_powers_stay_allowed():
    assert Scalar({-1: (Fraction(1, 2), 0)}) * Scalar.hbar(1) == Scalar.of(Fraction(1, 2))


def test_split_hbar_strips_power():
    s = Scalar.of(2) + 3 * Scalar.hbar(1) + Scalar.hbar(1) * Scalar.i()
    parts = dict(s.split_hbar())
    assert parts[0] == Scalar.of(2)
    assert parts[1] == Scalar.of(3) + Scalar.i()


def test_as_fraction_guards():
    assert Scalar.of(Fraction(-7, 4)).as_fraction() == Fraction(-7, 4)
    assert type(Scalar.of(-3).as_fraction()) is Fraction
    assert Scalar.of(-3).as_fraction() == -3
    with pytest.raises(ValueError):
        Scalar.i().as_fraction()
    with pytest.raises(ValueError):
        Scalar.hbar().as_fraction()
    with pytest.raises(ValueError, match="carries hbar"):
        (Scalar.one() + Scalar.hbar()).as_fraction()


@pytest.mark.parametrize("scalar, text", [
    (Scalar.of(Fraction(1, 2)), "1/2"),
    (Scalar.of(-2), "-2"),
    (Scalar.i() * 2, "2*i"),
    (-Scalar.i(), "-1*i"),
    (3 * Scalar.hbar(2), "3*hbar^2"),
    (Scalar.hbar(), "hbar"),
    (Scalar.of(1) + Scalar.i() * 2, "1 + 2*i"),
    (Scalar.i() * 2 * Scalar.hbar(2), "2*i*hbar^2"),
    (Scalar.zero(), "0"),
])
def test_rendering(scalar, text):
    assert str(scalar) == text


def test_random_ring_identities(rng):
    def rand():
        return Scalar({rng.randint(-1, 2): (Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                                            Fraction(rng.randint(-5, 5), rng.randint(1, 4)))})
    for _ in range(200):
        a, b, c = rand(), rand(), rand()
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a + (-a) == Scalar.zero()


# -- the integer-triple storage against the Fraction-pair oracle ---------

def _random_spec(rng):
    """{k: (re, im)} with hbar powers -2..2, zeros, i, and mixed denominators."""
    def part():
        roll = rng.random()
        if roll < 0.3:
            return 0
        if roll < 0.5:
            return rng.randint(-3, 3)
        if roll < 0.95:
            return Fraction(rng.randint(-12, 12), rng.randint(1, 12))
        return Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**6))
    return {rng.randint(-2, 2): (part(), part()) for _ in range(rng.randint(0, 3))}


def _random_pair(rng):
    spec = _random_spec(rng)
    return Scalar(spec), FractionScalar(spec)


def _as_fraction_outcome(s):
    try:
        return s.as_fraction()
    except ValueError as exc:
        return ("ValueError", str(exc))


def assert_matches_oracle(new, old):
    assert new.key() == old.key()
    assert str(new) == str(old)
    assert new.atoms() == old.atoms()
    assert [k for k, _ in new.split_hbar()] == old.hbar_powers()
    assert [(k, p.key()) for k, p in new.split_hbar()] == \
        [(k, p.key()) for k, p in old.split_hbar()]
    assert _as_fraction_outcome(new) == _as_fraction_outcome(old)
    assert hash(new) == hash(old)
    assert bool(new) == bool(old)
    assert len(new) == len(old.hbar_powers())


def assert_canonical(s):
    for k, (re, im, den) in s._terms.items():
        assert type(k) is int
        assert all(type(v) is int for v in (re, im, den))
        assert den > 0
        assert gcd(re, im, den) == 1
        assert re or im


def test_matches_fraction_oracle(rng):
    for _ in range(600):
        (a, a0), (b, b0) = _random_pair(rng), _random_pair(rng)
        n = rng.randint(-6, 6)
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        cases = [
            (a, a0),
            (a + b, a0 + b0),
            (a - b, a0 - b0),
            (-a, -a0),
            (a * b, a0 * b0),
            (a * n, a0 * n),
            (n * a, n * a0),
            (a + n, a0 + n),
            (n - a, n - a0),
            (a * q, a0 * q),
            (a + q, a0 + q),
            (a * 0, a0 * 0),
            (a + (-a), a0 + (-a0)),
            ((a + b) - b, (a0 + b0) - b0),
            ((a * b + a) * (b - n), (a0 * b0 + a0) * (b0 - n)),
        ]
        for new, old in cases:
            assert_matches_oracle(new, old)
            assert_canonical(new)
        assert (a == b) == (a0 == b0)
        assert (a == n) == (a0 == n)
        assert (a == q) == (a0 == q)
        assert (a + b - b == a) and (a0 + b0 - b0 == a0)


def test_exact_cancellation_is_empty():
    a = Scalar({-2: (Fraction(1, 3), 2), 1: (0, Fraction(-5, 7))})
    assert (a + (-a))._terms == {}
    assert ((a + Scalar.i()) - Scalar.i())._terms == a._terms
    assert (a * 0)._terms == {}


def test_two_routes_to_one_value_share_storage():
    direct = Scalar({0: (Fraction(2, 4), Fraction(3, 6))})
    product = Scalar.of(Fraction(1, 2)) * (1 + Scalar.i())
    assert direct._terms == product._terms == {0: (1, 1, 2)}
    assert Scalar({0: (Fraction(1, 6), Fraction(1, 4))})._terms == {0: (2, 3, 12)}
    assert hash(direct) == hash(product)
    summed = Scalar.hbar(-1) * Fraction(1, 6) + Scalar.hbar(-1) * Fraction(1, 3)
    scaled = Scalar.hbar(-1) * Fraction(3, 2) * Fraction(1, 3)
    assert summed._terms == scaled._terms == {-1: (1, 0, 2)}
    assert hash(summed) == hash(scaled)


@pytest.mark.parametrize("value", [0, 1, Fraction(1, 2)])
def test_real_scalar_hashes_as_its_fraction(value):
    s = Scalar.of(value)
    assert s == value and hash(s) == hash(value) == hash(Fraction(value))
    assert len({s, value}) == 1
    assert {value: "v"}[s] == "v" and {s: "s"}[value] == "s"
    assert {s} == {Fraction(value)}
    # i and hbar keep their own hashes, and stay apart from the rationals
    assert len({s, s * Scalar.i(), s * Scalar.hbar(), s + Scalar.i()}) == (2 if value == 0 else 4)


def test_arithmetic_builds_no_fraction(monkeypatch):
    a = Scalar({0: (Fraction(1, 2), 3), 2: (Fraction(-4, 9), Fraction(1, 6))})
    b = Scalar({-1: (Fraction(5, 3), 0), 2: (Fraction(2, 3), Fraction(-1, 4))})
    one_term = Scalar.hbar(1) * Fraction(3, 4)
    made = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    a + b, a + 5, a * b, a * 6, a * one_term, one_term * one_term, -a
    assert made == []
    Fraction(1, 3)
    assert made == [(1, 3)]  # the patch does see construction
