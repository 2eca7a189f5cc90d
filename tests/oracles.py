"""Independent slow routes kept as oracles for the library's fast paths.

Each function here is a direct transcription of a textbook formula: matrix
products and commutators, the Jacobiator as a triple sum over structure
constants, and the graded Leibniz rule spliced factor by factor.  The
library reads the same quantities off the square of the BRST differential
and applies derivations as vector fields; tests require exact equality.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from bvcalc.linalg import ExactMatrix
from bvcalc.scalars import Scalar
from bvcalc.superalgebra import Poly, _mask_bits


def matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    if a.ncols != b.nrows:
        raise ValueError("shape mismatch")
    rows = [[sum((a.rows[i][k] * b.rows[k][j] for k in range(a.ncols)), Fraction(0))
             for j in range(b.ncols)]
            for i in range(a.nrows)]
    return ExactMatrix(rows, b.ncols)


def action_matrix(model, k: int) -> ExactMatrix:
    """Matrix of basis vector k acting on the module."""
    n = model.module_dim
    return ExactMatrix([[model.rho_at(i, j, k) for j in range(n)]
                        for i in range(n)], n)


def jacobi_triple_loop(model):
    """Violating triples (j, k, m) with their residual vectors.

    Residual entry i is sum_l (f^l_jk f^i_lm + f^l_km f^i_lj + f^l_mj f^i_lk).
    """
    out = []
    rng = range(model.dim)
    for j, k, m in combinations(rng, 3):
        residual = []
        for i in rng:
            total = Fraction(0)
            for l in rng:
                total += (model.f_at(l, j, k) * model.f_at(i, l, m)
                          + model.f_at(l, k, m) * model.f_at(i, l, j)
                          + model.f_at(l, m, j) * model.f_at(i, l, k))
            residual.append(total)
        if any(residual):
            out.append(((j, k, m), residual))
    return out


def rep_commutator_check(model):
    """Violations of rho([g_j, g_k]) = rho(g_j) rho(g_k) - rho(g_k) rho(g_j)."""
    out = []
    n, m = model.module_dim, model.dim
    mats = [action_matrix(model, k) for k in range(m)]
    for j, k in combinations(range(m), 2):
        lhs = [[sum((model.f_at(l, j, k) * mats[l].rows[a][b] for l in range(m)),
                    Fraction(0)) for b in range(n)] for a in range(n)]
        comm_jk = matmul(mats[j], mats[k])
        comm_kj = matmul(mats[k], mats[j])
        residual = [[lhs[a][b] - comm_jk.rows[a][b] + comm_kj.rows[a][b]
                     for b in range(n)] for a in range(n)]
        if any(any(row) for row in residual):
            out.append(((j, k), ExactMatrix(residual, n)))
    return out


def leibniz_splice_apply(D, poly: Poly) -> Poly:
    """Graded Leibniz rule, factor by factor: each generator of each monomial
    is replaced by its image, with sign (-1)^(parity(D) * parity(prefix))."""
    ctx = D.ctx
    zero_exps = (0,) * ctx.n_even
    out = ctx.zero()
    for (exps, mask), coeff in poly.terms.items():
        # even factors sit in front of the odd part and carry parity 0,
        # so they contribute the plain exponent rule with no sign
        for s, k in enumerate(exps):
            if not k:
                continue
            img = D.images.get(ctx.even_names[s])
            if img is None:
                continue
            e = list(exps)
            e[s] = k - 1
            out = out + _splice(ctx, (tuple(e), 0), img, (zero_exps, mask), coeff * k)
        # odd factor at position t among the odd part: prefix parity is t
        bits = _mask_bits(mask)
        for t, s in enumerate(bits):
            img = D.images.get(ctx.odd_names[s])
            if img is None:
                continue
            c = -coeff if D.parity and t & 1 else coeff
            out = out + _splice(ctx, (exps, _bits_mask(bits[:t])), img,
                                (zero_exps, _bits_mask(bits[t + 1:])), c)
    return out


def _bits_mask(bits):
    mask = 0
    for b in bits:
        mask |= 1 << b
    return mask


def _splice(ctx, prefix_mono, image, suffix_mono, coeff):
    """coeff * prefix * image * suffix, the affixes being single monomials."""
    left = Poly(ctx, {prefix_mono: Scalar.of(coeff)})
    right = Poly(ctx, {suffix_mono: Scalar.one()})
    return left * image * right
