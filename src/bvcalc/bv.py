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
  terms dicts, and builds no derivative Poly.  The sweep lists pair k's
  even member at 2k and its odd member at 2k + 1, so each term is the
  derivative of Phi at index j times that of Psi at j ^ 1.
* for an even S the right derivatives are the left ones and d_e S is even,
  so {S, S} = 2 sum over pairs of (d_o S)(d_e S), from one left sweep.  The
  master residuals, ``antifield_report``'s {S1, S1} and ``exp_delta``'s
  1/2 {T, T} all take it from ``_half_self_bracket_into``.
"""

from __future__ import annotations

from .derivations import Derivation
from .scalars import Scalar
from .superalgebra import (ANTIFIELD, Context, EVEN, FIELD, Generator, Poly, _Record,
                           _derivs, _mul_into, _poly, _sweep, _twisted)


class PairingError(ValueError):
    """A context whose fields and antifields do not pair.  ``generator``
    names the generator refused: the antifield for a bad antifield, else
    the first field with no antifield, or None when there is no field."""

    def __init__(self, message: str, generator: str | None):
        super().__init__(message)
        self.generator = generator


class BVSpace:
    """A Context in which every field generator has a paired antifield.

    The one home of the pairing: it checks it, grades by antifield degree,
    and builds the field, antifield and pair sweeps once.
    """

    __slots__ = ("ctx", "field_ctx", "pairs", "_pair_slots", "_pair_sweep",
                 "_field_sweep", "_antifield_sweep", "_antifield_slots")

    def __init__(self, ctx: Context):
        by_name = {g.name: g for g in ctx.generators}
        claimed = {}
        for g in ctx.generators:
            if g.role == ANTIFIELD:
                f = by_name.get(g.partner)
                if f is None or f.role != FIELD:
                    raise PairingError(f"antifield {g.name} is not paired with a field", g.name)
                if f.parity == g.parity:
                    raise PairingError(
                        f"antifield {g.name} must have opposite parity to {f.name}", g.name)
                if f.name in claimed:
                    raise PairingError(f"field {f.name} has two antifields", g.name)
                claimed[f.name] = g.name
        fields = [g for g in ctx.generators if g.role == FIELD]
        # the claimed names are distinct fields, so equal counts pair them all
        if not fields or len(claimed) != len(fields):
            raise PairingError("context lacks a perfect field/antifield pairing",
                               next((f.name for f in fields if f.name not in claimed), None))
        self.ctx = ctx
        self.pairs = tuple((g.name, claimed[g.name]) for g in fields)
        self.field_ctx = Context(Generator(g.name, g.parity, FIELD) for g in fields)
        # derivative i of a field or antifield sweep is by the member of pair i
        self._field_sweep = _sweep([ctx.slot(f) for f, _ in self.pairs])
        self._antifield_sweep = _sweep([ctx.slot(a) for _, a in self.pairs])
        # the antifields as (even slots, odd mask), which restriction assigns
        evens, odds = self._antifield_sweep
        self._antifield_slots = (tuple(s for _, s in evens), sum(bit for _, bit in odds))
        # per pair: the even member's slot and the odd member's bit for
        # delta, and both members, even first, in the bracket's sweep
        slots, self._pair_slots = [], []
        for f, a in self.pairs:
            even, odd = sorted((ctx.slot(f), ctx.slot(a)))  # EVEN < ODD
            slots += [even, odd]
            self._pair_slots.append((even[1], 1 << odd[1]))
        self._pair_sweep = _sweep(slots)

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
        return Poly(self.ctx, _bracket_into({}, _derivs(phi.terms, self._pair_sweep, right=True),
                                            _derivs(psi.terms, self._pair_sweep)))

    def bracket_via_defect(self, phi: Poly, psi: Poly) -> Poly:
        """The bracket recovered from delta and the product alone:
            delta(Phi' Psi) - delta(Phi') Psi - Phi delta(Psi),
        with Phi' = Phi with its odd monomials negated (``_twisted``).  On a
        homogeneous Phi this is the defect of delta as a derivation,
        (-1)^p(Phi) delta(Phi Psi) + (-1)^(p(Phi)+1) delta(Phi) Psi - Phi delta(Psi),
        and by linearity it holds for Phi of mixed parity.

        Kept on purpose as a second, independent route: it is the cross-check
        of ``bracket``, which is computed from the derivative formula.
        """
        twisted = _poly(phi.ctx, _twisted(phi.terms))
        return self.delta(twisted * psi) - self.delta(twisted) * psi - phi * self.delta(psi)

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
            if not D.image(a).is_zero or any(self.antifield_degree(m) for m in img.terms):
                raise ValueError("derivation touches antifields")
            _mul_into(out, self.ctx.gen(a).terms, img.terms)
        return Poly(self.ctx, out)

    def extract_derivation(self, s1: Poly) -> Derivation:
        """Field-space derivation with image bracket(s1, field); inverse of s1_of.

        The bracket of any S1 with a field x is the right derivative of S1
        by x's antifield, so every image comes from one sweep over S1.
        """
        if any(self.antifield_degree(m) != 1 for m in s1.terms):
            raise ValueError("antifield degree must be exactly 1")
        parity = (s1.parity() + 1) % 2
        derivs = _derivs(s1.terms, self._antifield_sweep, right=True)
        images = {f: self.ctx.transport(_poly(self.ctx, derivs[i]), self.field_ctx)
                  for i, (f, _) in enumerate(self.pairs) if i in derivs}
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
        return 2 * Poly(self.ctx, _half_self_bracket_into({}, _derivs(s.terms, self._pair_sweep)))

    def quantum_master_residual(self, s: Poly) -> Poly:
        """{S, S} - 2 i hbar delta(S); zero iff exp(iS/hbar) is delta-closed."""
        two_i_hbar = Scalar.hbar() * Scalar.i() * 2
        return self.classical_master_residual(s) - two_i_hbar * self.delta(s)

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
        i_hbar = Scalar.hbar() * Scalar.i()
        return -(i_hbar * self.delta(psi)) + self.bracket(s, psi)

    # -- antifield-degree analysis -------------------------------------------

    def antifield_degree(self, mono) -> int:
        """The number of antifield factors in a monomial of ``ctx``."""
        exps, mask = mono
        evens, odds = self._antifield_slots
        return sum(exps[s] for s in evens) + (mask & odds).bit_count()

    def antifield_decompose(self, poly: Poly):
        """[(k, Poly)]: the parts of antifield degree k, k ascending."""
        buckets: dict[int, dict] = {}
        for m, c in poly.terms.items():
            buckets.setdefault(self.antifield_degree(m), {})[m] = c
        return [(k, _poly(poly.ctx, buckets[k])) for k in sorted(buckets)]

    def evaluate_even_fields(self, poly: Poly, point) -> Poly:
        """Substitute rational values for even fields; odd coordinates and
        antifields stay symbolic.  Values are taken by ``Scalar.of`` and must
        be rational, and every even field the point leaves out is set to 0.
        The result is zero iff every odd-monomial coefficient vanishes at the
        point."""
        assignments = {}
        for name, value in point.items():
            if self.ctx.parity_of(name) != EVEN or self.ctx.role_of(name) != FIELD:
                raise ValueError(f"{name} is not an even field coordinate")
            assignments[name] = self.ctx.scalar(Scalar.of(value).as_fraction())
        for f, _ in self.pairs:
            if self.ctx.parity_of(f) == EVEN and f not in assignments:
                assignments[f] = self.ctx.scalar(0)
        return poly.substitute(assignments)

    def antifield_report(self, s: Poly, points=()) -> "AntifieldReport":
        s = self.check_action(s)
        parts = dict(self.antifield_decompose(s))
        s0 = parts.get(0, self.ctx.zero())
        s1 = parts.get(1, self.ctx.zero())
        s2 = parts.get(2, self.ctx.zero())
        res_a = self.bracket(s0, s1)
        res_b = self.classical_master_residual(s1) + 2 * self.bracket(s0, s2)
        derivs = _derivs(s0.terms, self._field_sweep)
        gradient = {f: _poly(self.ctx, derivs.get(i, {})) for i, (f, _) in enumerate(self.pairs)}
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


def _bracket_into(out: dict, d_phi: dict, d_psi: dict) -> dict:
    """Add {Phi, Psi} into ``out`` from Phi's right pair sweep and Psi's left one."""
    for j, d in d_phi.items():
        other = d_psi.get(j ^ 1)  # the other member of j's pair
        if other:
            _mul_into(out, d, other)
    return out


def _half_self_bracket_into(out: dict, d_s: dict) -> dict:
    """Add 1/2 {S, S} of an even S, the sum of (d_o S)(d_e S), from its left pair sweep."""
    return _bracket_into(out, {j: d for j, d in d_s.items() if j & 1}, d_s)


class PointResult(_Record):
    def __init__(self, point: dict, is_critical: bool, gradient_failures: dict,
                 onshell_residual: Poly | None):
        vars(self).update(point=point, is_critical=is_critical,
                          gradient_failures=gradient_failures, onshell_residual=onshell_residual)


class AntifieldReport(_Record):
    def __init__(self, bracket_s0_s1: Poly, offshell_residual: Poly, points: list):
        # offshell_residual is {S1,S1} + 2{S0,S2}
        vars(self).update(bracket_s0_s1=bracket_s0_s1, offshell_residual=offshell_residual,
                          points=points)

    @property
    def first_order_consistent(self) -> bool:
        return self.bracket_s0_s1.is_zero and self.offshell_residual.is_zero
