"""Lie algebra and module data given by exact structure constants.

Conventions, fixed once here and used everywhere:

* ``f[i, j, k]`` is the e_i-coefficient of the bracket of basis vectors j and
  k; the table is antisymmetric in (j, k) and entered with j < k only.
* ``rho[i, j, k]`` is the e_i-coefficient of basis vector k acting on module
  vector j, so the matrix of the k-th action has (i, j) entry rho[i, j, k].
* The ghost differential sends c^i to (1/2) f^i_jk c^j c^k and, when a module
  is present, v^i to rho^i_jk v^j c^k.

Every quantity here is computed over Q from one BRST table,
``_brst_table``: the images of the generators as terms dicts keyed by
monomial, with ``int`` coefficients where the denominator is 1 and
``Fraction`` ones otherwise.  The Jacobi and representation residuals are
read off the square of that differential, and the Chevalley-Eilenberg
images are the differential applied to each cochain monomial, both through
``derivations._apply_into``, the Leibniz loop of ``Derivation.apply``: for
each generator, its image times the derivative by it, with the slot table
of that loop built once per BRST table.
None of this can produce an i or an hbar, so no ``Scalar`` is involved;
only ``brst_lie`` and ``brst_rep`` wrap the same table as Polys.

Poincare duality of the ghost complex.  The traces tr ad(e_k) = f^i_ik
(``_ad_traces``) are the bracket half of ``trace_condition``.  On the top
degree, d takes c^1..c^n with c^k left out to +-tr ad(e_k) c^1..c^n, so
d_(n-1): Lambda^(n-1) -> Lambda^n vanishes when every trace does.  Then for
a in Lambda^q and b in Lambda^(n-1-q) the Leibniz rule gives
0 = d(a b) = (da) b + (-1)^q a (db), so d_(n-1-q) is +- the transpose of
d_q in complementary-mask bases and the two have equal rank (Hazewinkel,
"A duality theorem for cohomology of Lie algebras", Math. USSR-Sb. 12,
1970).  The duality itself uses only the derivation property of d, but
the ranks are cohomology only when d squares to zero, which the guard below
ensures; so ``ce_cohomology_dims`` ranks d_0..d_((n-1)//2) alone at p = 0
for a traceless table.  At p = 1 the transpose of d is the differential with
coefficients in the dual module, a different complex, so every degree up to
n - 1 is ranked.

Ranking on a complement of the incoming boundaries.  When d_q d_(q-1) = 0,
d_q vanishes on im d_(q-1), so rank d_q is the rank of d_q restricted to any
complement of im d_(q-1).  The echelon form that ranks d_(q-1) names one:
its pivot rows have distinct lead monomials L in C^q and are zero on the
columns before their leads, so the basis monomials of C^q outside L span a
complement (``linalg.pivot_leads``).  ``ce_cohomology_dims`` therefore
builds and ranks the images of those monomials only, s_q - r_(q-1) of them
instead of s_q; the rows it skips are exactly the ones that would reduce to
zero.  This is the simplest step of reduction-based homology (Kaczynski,
Mrozek & Slusarek, "Homology computation by reduction of chain complexes",
Comput. Math. Appl. 35, 1998).  The identity needs d^2 = 0, that is Jacobi
and, at p = 1, the representation property, so ``ce_cohomology_dims``
checks both first and raises ``NotACochainComplex`` with the first
violation instead of ranking a table that is not a complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .derivations import Derivation, _apply_into, _slot_table
from .linalg import ExactMatrix, pivot_leads
from .scalars import Scalar
from .superalgebra import Context, EVEN, Generator, ODD, Poly, _add_into, _mask_bits, _poly


@dataclass(frozen=True)
class LieModel:
    """Structure constants of an algebra of dimension dim acting on a
    module of dimension module_dim (0 for no module)."""

    dim: int
    module_dim: int
    f: dict
    rho: dict

    @classmethod
    def build(cls, dim: int, brackets=None, module_dim: int = 0, rho=None) -> "LieModel":
        """Normalize and antisymmetrize input tables.

        ``brackets`` maps (i, j, k) -> value with the convention above; both
        orders of (j, k) may appear as long as they are consistent.
        """
        f = {}
        for (i, j, k), val in (brackets or {}).items():
            val = Fraction(val)
            for idx in (i, j, k):
                if not 0 <= idx < dim:
                    raise ValueError(f"bracket index {idx} out of range")
            if j == k:
                if val:
                    raise ValueError(f"nonzero bracket of basis vector {j} with itself")
                continue
            lo, hi = (j, k) if j < k else (k, j)
            stored = val if j < k else -val
            if (i, lo, hi) in f and f[(i, lo, hi)] != stored:
                raise ValueError(f"inconsistent bracket entries for ({i},{j},{k})")
            f[(i, lo, hi)] = stored
        full_f = {}
        for (i, j, k), val in f.items():
            if val:
                full_f[(i, j, k)] = val
                full_f[(i, k, j)] = -val
        full_rho = {}
        for (i, j, k), val in (rho or {}).items():
            val = Fraction(val)
            if not 0 <= i < module_dim or not 0 <= j < module_dim:
                raise ValueError("module index out of range")
            if not 0 <= k < dim:
                raise ValueError("algebra index out of range")
            if val:
                full_rho[(i, j, k)] = val
        return cls(dim, module_dim, full_f, full_rho)

    def f_at(self, i, j, k) -> Fraction:
        return self.f.get((i, j, k), Fraction(0))

    def rho_at(self, i, j, k) -> Fraction:
        return self.rho.get((i, j, k), Fraction(0))

    def adjoint(self) -> "LieModel":
        """Same algebra acting on itself: rho[i, j, k] = f[i, k, j]."""
        rho = {(i, j, k): self.f_at(i, k, j)
               for i in range(self.dim) for j in range(self.dim)
               for k in range(self.dim) if self.f_at(i, k, j)}
        return LieModel(self.dim, self.dim, dict(self.f), rho)


def _rational(x):
    """x as an int when its denominator is 1, else unchanged."""
    return x.numerator if x.denominator == 1 else x


def _unit(n: int, j: int) -> tuple:
    return tuple(int(s == j) for s in range(n))


def _brst_table(model: LieModel, module: bool):
    """(even images, odd images) of the BRST differential, one terms dict
    per generator slot, with int or Fraction coefficients.

    The ghost image of c^i sums (1/2) f^i_jk c^j c^k over both orders of
    (j, k), which is f^i_jk c^j c^k over j < k.  With ``module`` the context
    is ``rep_context``'s and v^i maps to rho^i_jk v^j c^k; without it the
    context is ``ghost_context``'s and there are no even images.
    """
    n = model.module_dim if module else 0
    zero = (0,) * n
    odd = [{} for _ in range(model.dim)]
    for (i, j, k), val in model.f.items():
        if j < k and val:
            odd[i][(zero, 1 << j | 1 << k)] = _rational(val)
    even = [{} for _ in range(n)]
    for (i, j, k), val in (model.rho.items() if module else ()):
        if val:
            even[i][(_unit(n, j), 1 << k)] = _rational(val)
    return even, odd


def _violations(squares, read):
    """[(indices, read(mask))] for each odd mask with a nonzero coefficient in
    some square, in ``combinations`` order of the odd indices."""
    masks = {mask for sq in squares for (_, mask), c in sq.items() if c}
    return [(tuple(bits), read(mask)) for bits, mask in
            sorted((_mask_bits(mask), mask) for mask in masks)]


def jacobi_check(model: LieModel):
    """Violating triples (j, k, m) with their residual vectors.

    Residual entry i is the c^j c^k c^m coefficient of D^2(c^i) for
    D = brst_lie(model), which is the Jacobiator
    sum_l (f^l_jk f^i_lm + f^l_km f^i_lj + f^l_mj f^i_lk).
    """
    _, odd = _brst_table(model, False)
    table = _slot_table((), enumerate(odd))
    squares = [_apply_into({}, table, img) for img in odd]
    return _violations(squares, lambda mask: [Fraction(sq.get(((), mask), 0))
                                              for sq in squares])


def rep_check(model: LieModel):
    """Violations of rho([g_j, g_k]) = rho(g_j) rho(g_k) - rho(g_k) rho(g_j).

    Entry (a, b) of the residual for the pair (j, k) is the v^b c^j c^k
    coefficient of D^2(v^a) for D = brst_rep(model).
    """
    even, odd = _brst_table(model, True)
    table = _slot_table(enumerate(even), enumerate(odd))
    squares = [_apply_into({}, table, img) for img in even]
    n = model.module_dim
    units = [_unit(n, b) for b in range(n)]
    return _violations(squares, lambda mask: ExactMatrix(
        [[sq.get((u, mask), 0) for u in units] for sq in squares], n))


def ghost_context(m: int) -> Context:
    """The odd ghosts c1..cm."""
    return Context(Generator(f"c{i + 1}", ODD, "field") for i in range(m))


def rep_context(model: LieModel, module_names=None) -> Context:
    vs = list(module_names) if module_names else [f"v{i + 1}" for i in range(model.module_dim)]
    if len(vs) != model.module_dim:
        raise ValueError("module name count mismatch")
    gens = [Generator(n, EVEN, "field") for n in vs]
    gens += ghost_context(model.dim).generators
    return Context(gens)


def brst_lie(model: LieModel) -> Derivation:
    """Odd derivation with c^i -> (1/2) f^i_jk c^j c^k on the ghost algebra."""
    return _brst(model, ghost_context(model.dim), False)


def brst_rep(model: LieModel, module_names=None) -> Derivation:
    """Odd derivation with v^i -> rho^i_jk v^j c^k and the ghost images."""
    return _brst(model, rep_context(model, module_names), True)


def _brst(model: LieModel, ctx: Context, module: bool) -> Derivation:
    """The BRST table as a Derivation with Scalar coefficients on ctx."""
    even, odd = _brst_table(model, module)
    names = ctx.even_names + ctx.odd_names
    return Derivation(ctx, ODD, {
        name: _poly(ctx, {m: Scalar.of(c) for m, c in img.items()})
        for name, img in zip(names, even + odd)})


def _ce_basis(n_even: int, n_odd: int, p: int, q: int):
    """Monomial keys of the (p, q) bigraded piece, in a fixed order."""
    masks = [sum(1 << i for i in combo) for combo in combinations(range(n_odd), q)]
    if p == 0:
        return [((0,) * n_even, mask) for mask in masks]
    return [(_unit(n_even, v), mask) for v in range(n_even) for mask in masks]


def _ce_differential(model: LieModel, p: int):
    """key -> the sparse image {monomial key: int or Fraction} of the BRST
    differential of ``brst_rep(model)`` on one basis monomial of C^(p,q);
    cancelled coefficients may stay as zeros."""
    if p not in (0, 1):
        raise ValueError("only p = 0 and p = 1 are supported")
    if p == 1 and model.module_dim == 0:
        raise ValueError("p = 1 needs a module")
    even, odd = _brst_table(model, True)
    table = _slot_table(enumerate(even), enumerate(odd))
    return lambda key: _apply_into({}, table, {key: 1})


def _ce_images(model: LieModel, p: int):
    """[(basis of C^(p,q), images)] for q = 0..dim, with the zeros dropped
    from each image."""
    image = _ce_differential(model, p)
    out = []
    for q in range(model.dim + 1):
        basis = _ce_basis(model.module_dim, model.dim, p, q)
        out.append((basis, [{m: c for m, c in image(key).items() if c} for key in basis]))
    return out


def ce_matrices(model: LieModel, p: int):
    """Exact matrices of the ghost-degree-raising differential, q = 0..dim.

    Entry (row, col) is the coefficient of the row basis monomial in the image
    of the col basis monomial; consecutive matrices compose to zero whenever
    the structure checks pass.
    """
    pieces = _ce_images(model, p)
    targets = [basis for basis, _ in pieces[1:]] + [[]]
    mats = []
    for (basis, images), dst in zip(pieces, targets):
        row_of = {key: row for row, key in enumerate(dst)}
        rows = [[0] * len(basis) for _ in dst]
        for col, image in enumerate(images):
            for key, value in image.items():
                rows[row_of[key]][col] = value
        mats.append(ExactMatrix(rows, len(basis)))
    return mats


def _ad_traces(model: LieModel):
    """tr ad(e_k) = sum_i f^i_ik for k = 0..dim-1, as Fractions."""
    traces = [Fraction(0)] * model.dim
    for (i, j, k), val in model.f.items():
        if i == j:
            traces[k] += val
    return traces


class NotACochainComplex(Exception):
    """Raised when the BRST differential of a table does not square to zero,
    so it has no Chevalley-Eilenberg cohomology.

    ``check`` is ``"jacobi"`` or ``"rep"``, ``violation`` the first
    (indices, residual) pair that ``jacobi_check`` or ``rep_check`` returns,
    and ``what`` the wording of the failure ("Jacobi fails" or "not a
    representation") that starts the message.
    """

    def __init__(self, check: str, violation):
        self.check = check
        self.violation = violation
        self.what = "Jacobi fails" if check == "jacobi" else "not a representation"
        super().__init__(f"{self.what} at {violation[0]}, so d^2 != 0")


def ce_cohomology_dims(model: LieModel, p: int):
    """dim ker - incoming rank per ghost degree, by exact sparse elimination.

    Raises ``NotACochainComplex`` when ``jacobi_check`` or, at p = 1,
    ``rep_check`` finds a violation: the dims are defined only when d
    squares to zero.  Here d_q maps ghost degree q to q + 1, and each d_q
    is ranked on the basis monomials of C^q that are not pivot leads of
    d_(q-1), a complement of its image (see the module docstring).  At
    p = 0 with every trace tr ad(e_k) zero, only d_q for q <= (n-1)//2 is
    built and ranked, for n = dim, and rank d_q = rank d_(n-1-q) for the
    other q < n (Poincare duality).  Otherwise d_0..d_(n-1) are ranked.
    d_n = 0 always.
    """
    image = _ce_differential(model, p)
    for check, violations in (("jacobi", jacobi_check(model)),
                              ("rep", rep_check(model) if p else [])):
        if violations:
            raise NotACochainComplex(check, violations[0])
    n = model.dim
    dual = p == 0 and not any(_ad_traces(model))
    ranks, leads = [], set()
    for q in range((n - 1) // 2 + 1 if dual else n):
        leads = set(pivot_leads([image(key) for key in _ce_basis(model.module_dim, n, p, q)
                                 if key not in leads]))
        ranks.append(len(leads))
    ranks += [ranks[n - 1 - q] for q in range(len(ranks), n)] + [0]
    sizes = [comb(n, q) * (model.module_dim if p else 1) for q in range(n + 1)]
    return [size - rank - prev for size, rank, prev in zip(sizes, ranks, [0] + ranks)]


def trace_condition(model: LieModel, module_names=None) -> Poly:
    """The divergence (rho^i_ik + f^i_ik) c^k as a Poly on the field context.

    Zero iff the action and the bracket are both traceless, which is exactly
    when the hbar-linear lift solves the quantum master equation.
    """
    ctx = rep_context(model, module_names)
    cs = ctx.odd_names
    out = {}
    for k, total in enumerate(_ad_traces(model)):
        for i in range(model.module_dim):
            total += model.rho_at(i, i, k)
        if total:
            _add_into(out, ctx.monomial(total, odd=[cs[k]]).terms)
    return Poly(ctx, out)
