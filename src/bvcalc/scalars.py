"""Exact scalar coefficients: Gaussian rationals with Laurent powers of hbar.

A scalar is a finite sum ``sum_k (a_k + b_k*i) * hbar**k`` with a_k, b_k
exact rationals of unbounded precision and k ranging over a finite set of
(possibly negative) integers.  Nothing in this module ever rounds.

Storage: each hbar power k maps to one integer triple ``(re, im, den)``
meaning ``(re + im*i) / den``, with ``den > 0``, ``gcd(re, im, den) == 1``
and ``(re, im) != (0, 0)``.  This form is canonical, so equal scalars have
equal dicts.  Arithmetic works on the integers directly (gcd-normalized
rational arithmetic, Knuth TAOCP vol. 2, 4.5.1); ``Fraction`` appears only
at the edges: the public constructor, ``key()``, ``as_fraction()`` and
rendering.  The constructor takes int or Fraction parts and int hbar powers
only; anything else (a bool, a float, a string, a fractional power) is a
TypeError, never a silent conversion.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd


class Scalar:
    """Immutable element of Q(i)[hbar, hbar^-1], stored sparsely by hbar power."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for k, (re, im) in terms.items():
                if not isinstance(k, int) or isinstance(k, bool):
                    raise TypeError(f"an hbar power must be an int, not {k!r}")
                for part in (re, im):
                    if not isinstance(part, (int, Fraction)) or isinstance(part, bool):
                        raise TypeError(f"a scalar part must be an int or Fraction, "
                                        f"not {part!r}")
                value = (Scalar.of(re) + Scalar.of(im) * Scalar.i())._terms
                if value:
                    clean[k] = value[0]
        self._terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def of(cls, value) -> "Scalar":
        """Coerce an int, Fraction or Scalar into a Scalar."""
        if isinstance(value, Scalar):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return _make({0: (value, 0, 1)} if value else {})
        if isinstance(value, Fraction):
            return _make({0: (value.numerator, 0, value.denominator)} if value else {})
        raise TypeError(f"cannot make a Scalar out of {value!r}")

    @classmethod
    def zero(cls) -> "Scalar":
        return _make({})

    @classmethod
    def one(cls) -> "Scalar":
        return _make({0: (1, 0, 1)})

    @classmethod
    def i(cls) -> "Scalar":
        return _make({0: (0, 1, 1)})

    @classmethod
    def hbar(cls, power: int = 1) -> "Scalar":
        return cls({power: (1, 0)})

    # -- queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        """The number of hbar powers with a nonzero coefficient."""
        return len(self._terms)

    def split_hbar(self):
        """[(k, hbar-free Scalar)] with k ascending; sums back to self*hbar^k."""
        return [(k, _make({0: self._terms[k]})) for k in sorted(self._terms)]

    def as_fraction(self) -> Fraction:
        """The value as an exact rational; raises if i or hbar is present."""
        if not self._terms:
            return Fraction(0)
        if len(self._terms) > 1 or 0 not in self._terms:
            raise ValueError(f"scalar {self} carries hbar, not a plain rational")
        re, im, den = self._terms[0]
        if im:
            raise ValueError(f"scalar {self} has an imaginary part")
        # (re, den) is already in lowest terms; the int path skips Fraction's gcd.
        return Fraction(re) if den == 1 else Fraction(re, den)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Scalar):
            terms = dict(self._terms)
            for k, e2 in other._terms.items():
                e1 = terms.get(k)
                if e1 is None:
                    terms[k] = e2
                    continue
                a1, b1, d1 = e1
                a2, b2, d2 = e2
                if d1 == d2:
                    re, im, den = a1 + a2, b1 + b2, d1
                else:
                    re, im, den = a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2
                if re or im:
                    g = gcd(re, im, den)
                    terms[k] = (re // g, im // g, den // g) if g != 1 else (re, im, den)
                else:
                    del terms[k]
            return _make(terms)
        if isinstance(other, (int, Fraction)):
            return self + Scalar.of(other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _make({k: (-re, -im, den) for k, (re, im, den) in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        return self + (-Scalar.of(other))

    def __rsub__(self, other):
        return Scalar.of(other) + (-self)

    def __mul__(self, other):
        # ``type is``, not ``isinstance``: a bool is refused, as by ``+``
        if type(other) is int:
            if not other:
                return _make({})
            if other == 1:
                return self
            # gcd(re*n, im*n, den) = gcd(n, den) because gcd(re, im, den) = 1.
            out = {}
            for k, (re, im, den) in self._terms.items():
                g = gcd(other, den)
                n = other // g if g != 1 else other
                out[k] = (re * n, im * n, den // g)
            return _make(out)
        if isinstance(other, Fraction):
            other = Scalar.of(other)
        elif not isinstance(other, Scalar):
            return NotImplemented
        t1, t2 = self._terms, other._terms
        if len(t1) == 1 and len(t2) == 1:
            # Z[i] has no zero divisors, so a one-term product never vanishes.
            ((k1, (a, b, d1)),) = t1.items()
            ((k2, (c, e, d2)),) = t2.items()
            re, im, den = a * c - b * e, a * e + b * c, d1 * d2
            if den != 1:
                g = gcd(re, im, den)
                if g != 1:
                    re, im, den = re // g, im // g, den // g
            return _make({k1 + k2: (re, im, den)})
        acc = {}
        for k1, (a, b, d1) in t1.items():
            for k2, (c, e, d2) in t2.items():
                k = k1 + k2
                re, im, den = a * c - b * e, a * e + b * c, d1 * d2
                prev = acc.get(k)
                if prev is not None:
                    p_re, p_im, p_den = prev
                    if p_den == den:
                        re, im = re + p_re, im + p_im
                    else:
                        re, im, den = re * p_den + p_re * den, im * p_den + p_im * den, den * p_den
                acc[k] = (re, im, den)
        out = {}
        for k, (re, im, den) in acc.items():
            if re or im:
                g = gcd(re, im, den)
                out[k] = (re // g, im // g, den // g) if g != 1 else (re, im, den)
        return _make(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            other = Scalar.of(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        # a real, hbar-free scalar equals its Fraction, so it hashes as one
        terms = self._terms
        if terms.keys() <= {0}:
            re, im, den = terms.get(0, (0, 0, 1))
            if not im:
                return hash(Fraction(re, den))
        return hash(self.key())

    def key(self):
        """Canonical hashable form (used for deterministic ordering)."""
        return tuple((k, Fraction(re, den), Fraction(im, den))
                     for k, (re, im, den) in sorted(self._terms.items()))

    # -- rendering ----------------------------------------------------

    def atoms(self):
        """List of (sign, magnitude_text) pieces in canonical order.

        Magnitude texts are grammar-compatible factors like ``1/2``, ``2*i``,
        ``hbar^2`` or ``3*i*hbar``; the sign is +1 or -1.
        """
        out = []
        for k in sorted(self._terms):
            re, im, den = self._terms[k]
            if re:
                out.append(_atom(Fraction(re, den), k, imag=False))
            if im:
                out.append(_atom(Fraction(im, den), k, imag=True))
        return out

    def __str__(self):
        return _signed_sum(self.atoms())

    def __repr__(self):
        return f"Scalar({self})"


def height(scalars) -> int:
    """The largest |re|, |im| or den stored for any of the scalars (0 when
    all are zero): no numerator or denominator of their values is larger."""
    triples = chain.from_iterable(s._terms.values() for s in scalars)
    return max(map(abs, chain.from_iterable(triples)), default=0)


_new = object.__new__


def _make(terms) -> Scalar:
    """Trusted constructor: ``terms`` is already canonical and is not copied."""
    s = _new(Scalar)
    s._terms = terms
    return s


def _atom(coeff: Fraction, power: int, imag: bool):
    sign = 1 if coeff > 0 else -1
    mag = abs(coeff)
    parts = []
    if mag != 1 or (not imag and power == 0):
        parts.append(str(mag))
    if imag:
        parts.append("i")
    if power:
        parts.append("hbar" if power == 1 else f"hbar^{power}")
    return sign, "*".join(parts) if parts else "1"


def _guard(text: str) -> str:
    # The expression grammar has no unary minus, so a negative factor must
    # start with a signed rational: "-i" is illegal, "-1*i" is fine.
    return text if text[0].isdigit() else "1*" + text


def _signed_sum(pieces) -> str:
    """The sum of (sign, text) pieces as the expression grammar reads it,
    "0" when there are none: a leading "-" or a " - " / " + " joint before
    each piece, and a negative piece that starts with no digit guarded."""
    parts = []
    for n, (sign, text) in enumerate(pieces):
        if sign < 0:
            parts.append(("-" if n == 0 else " - ") + _guard(text))
        else:
            parts.append(text if n == 0 else " + " + text)
    return "".join(parts) or "0"
