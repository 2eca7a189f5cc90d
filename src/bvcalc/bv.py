"""Odd Laplacian and antibracket on a space of paired fields and antifields.

Sign conventions (chosen once; every identity test depends on them):

* delta applies the field derivative first, then the antifield derivative,
  summed over the pairs.  The opposite order differs by signs that would
  break the divergence cross-check against the structure-constant trace.
* the bracket is
      sum_i <-dPhi/dx+_i * dPsi/dx^i + <-dPhi/dx^i * dPsi/dx+_i
  with right derivatives (<-d) on Phi and left derivatives on Psi.  Both
  carry their Koszul sign per monomial, so the formula is bilinear and
  holds for inputs of mixed parity as they are.  With e the even and o the
  odd member of pair i, whichever of them is the field, the pair's term is
      (<-d_o Phi)(d_e Psi) + (d_e Phi)(d_o Psi),
  since a right derivative by an even generator is the left one.  So the
  bracket takes d_e and d_o for every pair from one ``_derivs`` sweep over
  each argument (right derivatives on Phi, left ones on Psi), as plain
  terms dicts, and builds no derivative Poly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .derivations import Derivation
from .scalars import Scalar
from .superalgebra import (ANTIFIELD, Context, EVEN, FIELD, Generator, ODD, Poly,
                           _derivs, _mul_into)


class BVSpace:
    """A Context in which every field generator has a paired antifield."""

    __slots__ = ("ctx", "field_ctx", "pairs", "_pair_slots", "_even_slots", "_odd_bits")

    def __init__(self, ctx: Context):
        fields = [g for g in ctx.generators if g.role == FIELD]
        antifields = [g for g in ctx.generators if g.role == ANTIFIELD]
        if not fields or len(ctx.pairs) != len(fields) or len(antifields) != len(fields):
            raise ValueError("context lacks a perfect field/antifield pairing")
        self.ctx = ctx
        self.pairs = ctx.pairs
        self.field_ctx = Context(Generator(g.name, g.parity, FIELD) for g in fields)
        # per pair: the even member's slot and the odd member's bit, for
        # delta as pairs and for the bracket's sweeps as two lists
        self._pair_slots = []
        for f, a in self.pairs:
            even, odd = (f, a) if ctx.parity_of(f) == EVEN else (a, f)
            self._pair_slots.append((ctx.slot(even)[1], 1 << ctx.slot(odd)[1]))
        self._even_slots = [s for s, _ in self._pair_slots]
        self._odd_bits = [bit for _, bit in self._pair_slots]

    @classmethod
    def over_fields(cls, specs) -> "BVSpace":
        """Build the paired context from (name, parity) field specs.

        Fields keep their declaration order; antifields follow in the same
        order, named by suffixing 'p', with flipped parity.
        """
        gens = [Generator(name, parity, FIELD) for name, parity in specs]
        gens += [Generator(name + "p", 1 - parity, ANTIFIELD, name)
                 for name, parity in specs]
        return cls(Context(gens))

    # -- Laplacian and bracket -------------------------------------------

    def delta(self, phi: Poly) -> Poly:
        """Sum over pairs of the antifield derivative of the field derivative.

        Whichever member of a pair is odd, the double derivative of a
        monomial containing both is its coefficient times the even member's
        exponent, with the sign of the odd generators before the odd member.
        """
        if phi.ctx != self.ctx:
            raise ValueError("context mismatch")
        out = {}
        get = out.get
        for (exps, mask), c in phi.terms.items():
            for s, bit in self._pair_slots:
                k = exps[s]
                if k and mask & bit:
                    dc = c * k
                    if (mask & (bit - 1)).bit_count() & 1:
                        dc = -dc
                    mono = (exps[:s] + (k - 1,) + exps[s + 1:], mask ^ bit)
                    prev = get(mono)
                    out[mono] = dc if prev is None else prev + dc
        return Poly(self.ctx, out)

    def bracket(self, phi: Poly, psi: Poly) -> Poly:
        """sum over pairs of <-dPhi/dx+ dPsi/dx + <-dPhi/dx dPsi/dx+.

        Computed as (<-d_o Phi)(d_e Psi) + (d_e Phi)(d_o Psi) per pair, with
        e and o its even and odd member, from one sweep over each argument.
        """
        if phi.ctx != self.ctx or psi.ctx != self.ctx:
            raise ValueError("context mismatch")
        if phi.is_zero or psi.is_zero:
            return self.ctx.zero()
        n = len(self.pairs)
        d_phi = _derivs(phi.terms, self._even_slots, self._odd_bits, right=True)
        d_psi = _derivs(psi.terms, self._even_slots, self._odd_bits)
        out = {}
        # pair e's even member is derivative e and its odd member o = n + e
        for e in range(n):
            o = n + e
            for a, b in ((o, e), (e, o)):
                if a in d_phi and b in d_psi:
                    _mul_into(out, d_phi[a], d_psi[b])
        return Poly(self.ctx, out)

    def bracket_via_defect(self, phi: Poly, psi: Poly) -> Poly:
        """The bracket recovered from delta and the product alone:
        (-1)^p(Phi) delta(Phi Psi) + (-1)^(p(Phi)+1) delta(Phi) Psi - Phi delta(Psi).

        Kept on purpose as a second, independent route: it is the cross-check
        of ``bracket``, which is computed from the derivative formula.
        """
        out = self.ctx.zero()
        for phi_h, p_phi in zip(phi.parity_split(), (EVEN, ODD)):
            if phi_h.is_zero:
                continue
            term = (self.delta(phi_h * psi) - self.delta(phi_h) * psi)
            if p_phi:
                term = -term
            out = out + term - phi_h * self.delta(psi)
        return out

    # -- lifts between field derivations and quadratic actions -------------

    def lift(self, derivation: Derivation) -> Derivation:
        """A field-context derivation viewed on the full space."""
        if derivation.ctx == self.ctx:
            return derivation
        return derivation.transport(self.ctx)

    def s1_of(self, derivation: Derivation) -> Poly:
        """sum_i antifield_i * D(field_i); even whenever D is odd."""
        D = self.lift(derivation)
        out = {}
        for f, a in self.pairs:
            img = D.image(f)
            if any(img.mono_antifield_degree(m) for m in img.terms):
                raise ValueError("derivation touches antifields")
            _mul_into(out, self.ctx.gen(a).terms, img.terms)
        for g in self.ctx.generators:
            if g.role == ANTIFIELD and not D.image(g.name).is_zero:
                raise ValueError("derivation touches antifields")
        return Poly(self.ctx, out)

    def extract_derivation(self, s1: Poly) -> Derivation:
        """Field-space derivation with image bracket(s1, field); inverse of s1_of."""
        if any(s1.mono_antifield_degree(m) != 1 for m in s1.terms):
            raise ValueError("antifield degree must be exactly 1")
        parity = (s1.parity() + 1) % 2
        images = {}
        for f, _ in self.pairs:
            img = self.bracket(s1, self.ctx.gen(f))
            if not img.is_zero:
                images[f] = self.ctx.transport(img, self.field_ctx)
        return Derivation(self.field_ctx, parity, images)

    # -- master equations ---------------------------------------------------

    def check_action(self, s: Poly) -> Poly:
        if s.ctx != self.ctx:
            raise ValueError("context mismatch")
        if not s.is_zero and s.parity() != EVEN:
            raise ValueError("an action must be even")
        return s

    def classical_master_residual(self, s: Poly) -> Poly:
        """{S, S}; zero iff S solves the classical master equation."""
        s = self.check_action(s)
        return self.bracket(s, s)

    def quantum_master_residual(self, s: Poly) -> Poly:
        """{S, S} - 2 i hbar delta(S); zero iff exp(iS/hbar) is delta-closed."""
        s = self.check_action(s)
        two_i_hbar = Scalar.hbar(1, 1) * Scalar.i() * 2
        return self.bracket(s, s) - two_i_hbar * self.delta(s)

    def hbar_equations(self, s: Poly):
        """Residuals R_k with S = sum hbar^k S_k:

        R_k = sum_{a+b=k} {S_a, S_b} - 2 i delta(S_{k-1}),
        the hbar^k coefficient of the quantum master residual; only the
        nonzero rows, k ascending.
        """
        return self.quantum_master_residual(s).hbar_decompose()

    def omega_apply(self, s: Poly, psi: Poly) -> Poly:
        """The quantum BRST operator: -i hbar delta(psi) + {S, psi}."""
        s = self.check_action(s)
        i_hbar = Scalar.hbar(1, 1) * Scalar.i()
        return -(i_hbar * self.delta(psi)) + self.bracket(s, psi)

    # -- antifield-degree analysis -------------------------------------------

    def evaluate_even_fields(self, poly: Poly, point) -> Poly:
        """Substitute rational values for even fields; odd coordinates and
        antifields stay symbolic.  The result is zero iff every odd-monomial
        coefficient vanishes at the point."""
        assignments = {}
        for name, value in point.items():
            if self.ctx.parity_of(name) != EVEN or self.ctx.role_of(name) != FIELD:
                raise ValueError(f"{name} is not an even field coordinate")
            assignments[name] = self.ctx.scalar(Fraction(value))
        for f, _ in self.pairs:
            if self.ctx.parity_of(f) == EVEN and f not in assignments:
                assignments[f] = self.ctx.scalar(0)
        return poly.substitute(assignments)

    def antifield_report(self, s: Poly, points=()) -> "AntifieldReport":
        s = self.check_action(s)
        parts = {k: p for k, p in s.antifield_decompose()}
        s0 = parts.get(0, self.ctx.zero())
        s1 = parts.get(1, self.ctx.zero())
        s2 = parts.get(2, self.ctx.zero())
        res_a = self.bracket(s0, s1)
        res_b = self.bracket(s1, s1) + 2 * self.bracket(s0, s2)
        gradient = {f: s0.left_deriv(f) for f, _ in self.pairs}
        point_results = []
        for point in points:
            bad = {f: value for f, g in gradient.items()
                   if not (value := self.evaluate_even_fields(g, point)).is_zero}
            if bad:
                point_results.append(PointResult(dict(point), False, bad, None))
                continue
            onshell = self.evaluate_even_fields(res_b, point)
            point_results.append(PointResult(dict(point), True, {}, onshell))
        return AntifieldReport(res_a, res_b, point_results)


@dataclass
class PointResult:
    point: dict
    is_critical: bool
    gradient_failures: dict
    onshell_residual: Poly | None


@dataclass
class AntifieldReport:
    bracket_s0_s1: Poly
    offshell_residual: Poly          # {S1,S1} + 2{S0,S2}
    points: list

    @property
    def first_order_consistent(self) -> bool:
        return self.bracket_s0_s1.is_zero and self.offshell_residual.is_zero
