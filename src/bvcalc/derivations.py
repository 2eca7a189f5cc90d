"""Parity-homogeneous derivations given by their images on generators.

A derivation is extended to the whole algebra by the graded Leibniz rule,
realized as the vector field sum_v D(v) d/dv in left derivatives; composition
and squares are realized by repeated application, never by symbolic operator
algebra.  The degree-n rows of the square reproduce the quadratic relations
of a strong homotopy structure.
"""

from __future__ import annotations

from .superalgebra import Context, EVEN, ODD, Poly, _derivs, _mul_into


class Derivation:
    """Derivation of fixed parity, stored as generator -> image Poly."""

    __slots__ = ("ctx", "parity", "images", "_table")

    def __init__(self, ctx: Context, parity: int, images):
        if parity not in (EVEN, ODD):
            raise ValueError("derivation parity must be 0 or 1")
        clean = {}
        for name, img in images.items():
            gen_parity = ctx.parity_of(name)
            if not isinstance(img, Poly):
                img = ctx.scalar(img)
            if img.ctx != ctx:
                raise ValueError("context mismatch in derivation image")
            if img.is_zero:
                continue
            if img.parity() != (gen_parity + parity) % 2:
                raise ValueError(
                    f"image of {name} has the wrong parity for a "
                    f"{'odd' if parity else 'even'} derivation")
            clean[name] = img
        self.ctx = ctx
        self.parity = parity
        self.images = clean
        slots = ([], [])  # (slot, image terms) of the even and odd generators
        for name, img in clean.items():
            gen_parity, s = ctx.slot(name)
            slots[gen_parity].append((s, img.terms))
        self._table = _slot_table(*slots)

    def image(self, name: str) -> Poly:
        self.ctx.slot(name)
        return self.images.get(name, self.ctx.zero())

    @property
    def is_zero(self) -> bool:
        return not self.images

    def __call__(self, poly: Poly) -> Poly:
        return self.apply(poly)

    def apply(self, poly: Poly) -> Poly:
        """The vector field sum_v D(v) * d/dv with left derivatives.

        This is the graded Leibniz rule: moving D past a factor a costs
        (-1)^(parity(D) * parity(a)); see ``_apply_into``.
        """
        if poly.ctx != self.ctx:
            raise ValueError("context mismatch")
        return Poly(self.ctx, _apply_into({}, self._table, poly.terms))

    def square_residual(self):
        """{generator: D(D(generator))}; all zero iff D squares to zero."""
        return {g.name: self.apply(self.image(g.name))
                for g in self.ctx.generators}

    def commutator(self, other: "Derivation") -> "Derivation":
        """Graded commutator [D,E] = DE - (-1)^(parity D * parity E) ED."""
        if other.ctx != self.ctx:
            raise ValueError("context mismatch")
        sign = -1 if self.parity and other.parity else 1
        images = {}
        for g in self.ctx.generators:
            img = self.apply(other.image(g.name)) - sign * other.apply(self.image(g.name))
            if not img.is_zero:
                images[g.name] = img
        return Derivation(self.ctx, (self.parity + other.parity) % 2, images)

    def transport(self, target: Context) -> "Derivation":
        images = {name: self.ctx.transport(img, target)
                  for name, img in self.images.items()}
        return Derivation(target, self.parity, images)

    def __repr__(self):
        imgs = ", ".join(f"{v} -> {img}" for v, img in sorted(self.images.items()))
        return f"Derivation({'odd' if self.parity else 'even'}; {imgs})"


def linf_rows(square, n_max: int):
    """[(n, {generator: degree-n part of D(D(generator))})] for n = 0..n_max.

    ``square`` is a derivation's ``square_residual()``.  The n = 1, 2, 3 rows
    are the first quadratic relations of the homotopy ladder; all rows vanish
    iff the square does.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    return [(n, {v: p.degree_part(n) for v, p in square.items()})
            for n in range(0, n_max + 1)]


def _slot_table(even, odd):
    """The (even slots, odd bits, images) table ``_apply_into`` takes, from
    (slot, image terms) pairs of the even and of the odd generators.  Empty
    images are left out, and the images are listed evens first, so image i
    goes with the derivative ``_derivs`` returns under index i."""
    even = [(s, img) for s, img in even if img]
    odd = [(s, img) for s, img in odd if img]
    return [s for s, _ in even], [1 << s for s, _ in odd], [img for _, img in even + odd]


def _apply_into(out: dict, table, terms: dict) -> dict:
    """Add sum_v D(v) * d/dv of ``terms`` into ``out`` and return it.

    ``table`` is ``_slot_table``'s (even slots, odd bits, image terms), built
    once per derivation.  One ``_derivs`` sweep takes the left derivative of
    ``terms`` by every generator with an image, and each nonzero D(v) *
    d/dv lands in ``out`` through ``_mul_into``; cancelled coefficients stay
    as zeros.  Coefficients may be of any type with ``*``, ``+`` and unary
    ``-``: ``Scalar`` for ``Derivation.apply``, ``int`` or ``Fraction`` for
    the rational BRST table in ``lie``.
    """
    even_slots, odd_bits, images = table
    for i, d in _derivs(terms, even_slots, odd_bits).items():
        _mul_into(out, images[i], d)
    return out
