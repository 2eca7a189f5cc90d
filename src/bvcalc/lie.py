"""Lie algebra and module data given by exact structure constants.

Conventions, fixed once here and used everywhere:

* ``f[i, j, k]`` is the e_i-coefficient of the bracket of basis vectors j and
  k; the table is antisymmetric in (j, k) and entered with j < k only.
* ``rho[i, j, k]`` is the e_i-coefficient of basis vector k acting on module
  vector j, so the matrix of the k-th action has (i, j) entry rho[i, j, k].
* The ghost differential sends c^i to (1/2) f^i_jk c^j c^k and, when a module
  is present, v^i to rho^i_jk v^j c^k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .derivations import Derivation
from .linalg import ExactMatrix, sparse_rank
from .scalars import Scalar
from .superalgebra import Context, EVEN, Generator, ODD, Poly, _add_into, _collect


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


def jacobi_check(model: LieModel):
    """Violating triples (j, k, m) with their residual vectors.

    Residual entry i is the c^j c^k c^m coefficient of D^2(c^i) for
    D = brst_lie(model), which is the Jacobiator
    sum_l (f^l_jk f^i_lm + f^l_km f^i_lj + f^l_mj f^i_lk).
    """
    D = brst_lie(model)
    cs = D.ctx.odd_names
    square = D.square_residual()
    out = []
    for triple in combinations(range(model.dim), 3):
        odd = [cs[t] for t in triple]
        residual = [square[c].coefficient(odd=odd).as_fraction() for c in cs]
        if any(residual):
            out.append((triple, residual))
    return out


def rep_check(model: LieModel):
    """Violations of rho([g_j, g_k]) = rho(g_j) rho(g_k) - rho(g_k) rho(g_j).

    Entry (a, b) of the residual for the pair (j, k) is the v^b c^j c^k
    coefficient of D^2(v^a) for D = brst_rep(model).
    """
    D = brst_rep(model)
    vs, cs = D.ctx.even_names, D.ctx.odd_names
    square = D.square_residual()
    out = []
    for j, k in combinations(range(model.dim), 2):
        odd = [cs[j], cs[k]]
        residual = [[square[va].coefficient({vb: 1}, odd).as_fraction() for vb in vs]
                    for va in vs]
        if any(any(row) for row in residual):
            out.append(((j, k), ExactMatrix(residual, len(vs))))
    return out


def ghost_context(m: int, names=None) -> Context:
    names = list(names) if names else [f"c{i + 1}" for i in range(m)]
    if len(names) != m:
        raise ValueError("ghost name count mismatch")
    return Context(Generator(n, ODD, "field") for n in names)


def rep_context(model: LieModel, module_names=None, ghost_names=None) -> Context:
    vs = list(module_names) if module_names else [f"v{i + 1}" for i in range(model.module_dim)]
    cs = list(ghost_names) if ghost_names else [f"c{i + 1}" for i in range(model.dim)]
    if len(vs) != model.module_dim or len(cs) != model.dim:
        raise ValueError("coordinate name count mismatch")
    gens = [Generator(n, EVEN, "field") for n in vs]
    gens += [Generator(n, ODD, "field") for n in cs]
    return Context(gens)


def brst_lie(model: LieModel, ghost_names=None) -> Derivation:
    """Odd derivation with c^i -> (1/2) f^i_jk c^j c^k on the ghost algebra."""
    ctx = ghost_context(model.dim, ghost_names)
    return _brst(model, ctx, [], list(ctx.odd_names))


def brst_rep(model: LieModel, module_names=None, ghost_names=None) -> Derivation:
    """Odd derivation with v^i -> rho^i_jk v^j c^k and the ghost images."""
    ctx = rep_context(model, module_names, ghost_names)
    vs = list(ctx.even_names)
    cs = list(ctx.odd_names)
    return _brst(model, ctx, vs, cs)


def _brst(model: LieModel, ctx: Context, vs, cs) -> Derivation:
    half = Fraction(1, 2)
    images = {}
    for i, cname in enumerate(cs):
        img = {}
        for (ii, j, k), val in model.f.items():
            if ii == i:
                _add_into(img, ctx.monomial(half * val, odd=[cs[j], cs[k]]).terms)
        images[cname] = _collect(ctx, img)
    for i, vname in enumerate(vs):
        img = {}
        for (ii, j, k), val in model.rho.items():
            if ii == i:
                _add_into(img, ctx.monomial(val, even={vs[j]: 1}, odd=[cs[k]]).terms)
        images[vname] = _collect(ctx, img)
    return Derivation(ctx, ODD, images)


def _ce_basis(ctx: Context, p: int, q: int):
    """Monomial keys of the (p, q) bigraded piece, in a fixed order."""
    n_even = ctx.n_even
    masks = [sum(1 << i for i in combo) for combo in combinations(range(ctx.n_odd), q)]
    if p == 0:
        return [((0,) * n_even, mask) for mask in masks]
    return [(tuple(int(s == v) for s in range(n_even)), mask)
            for v in range(n_even) for mask in masks]


def _ce_images(model: LieModel, p: int):
    """[(basis of C^(p,q), images)] for q = 0..dim.

    Each image is the sparse vector {monomial key: Fraction} of D applied to
    one basis monomial, for D = brst_rep(model).
    """
    if p not in (0, 1):
        raise ValueError("only p = 0 and p = 1 are supported")
    if p == 1 and model.module_dim == 0:
        raise ValueError("p = 1 needs a module")
    D = brst_rep(model)
    ctx = D.ctx
    one = Scalar.one()
    out = []
    for q in range(model.dim + 1):
        basis = _ce_basis(ctx, p, q)
        images = [{m: c.as_fraction() for m, c in D.apply(Poly(ctx, {key: one})).terms.items()}
                  for key in basis]
        out.append((basis, images))
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


def ce_cohomology_dims(model: LieModel, p: int):
    """dim ker - incoming rank per ghost degree, by exact sparse elimination."""
    dims = []
    prev_rank = 0
    for basis, images in _ce_images(model, p):
        rank = sparse_rank(images)
        dims.append(len(basis) - rank - prev_rank)
        prev_rank = rank
    return dims


def trace_condition(model: LieModel, module_names=None, ghost_names=None) -> Poly:
    """The divergence (rho^i_ik + f^i_ik) c^k as a Poly on the field context.

    Zero iff the action and the bracket are both traceless, which is exactly
    when the hbar-linear lift solves the quantum master equation.
    """
    ctx = rep_context(model, module_names, ghost_names)
    cs = ctx.odd_names
    out = {}
    for k in range(model.dim):
        total = Fraction(0)
        for i in range(model.dim):
            total += model.f_at(i, i, k)
        for i in range(model.module_dim):
            total += model.rho_at(i, i, k)
        if total:
            _add_into(out, ctx.monomial(total, odd=[cs[k]]).terms)
    return _collect(ctx, out)
