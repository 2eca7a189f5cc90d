"""Independent slow routes kept as oracles for the library's fast paths.

Each function here is a direct transcription of a textbook formula: dense
matrix rank by Bareiss and by Gauss-Jordan elimination, matrix products and
commutators, the Jacobiator as a triple sum over structure constants, and
the graded Leibniz rule spliced factor by factor.  The library ranks sparse
vectors, reads the same quantities off the square of the BRST differential
and applies derivations as vector fields; tests require exact equality.

The Koszul-sign routes below split their arguments by parity
(``parity_split``, once ``Poly.parity_split``) and apply a sign table per
homogeneous component: the antibracket as four sub-brackets,
the right derivative as two signed left derivatives, Berezin integration as
a hand-written coefficient loop per variable (``berezin_loop``) and as
minus the right derivative per variable (``berezin_right_deriv``), and the
Laplacian of P*exp(T) per parity of P.  The library takes every sign per
monomial instead, has no Berezin integral outside the fused gauge
integral, and takes the Laplacian of P*exp(T) from one derivative sweep of
T, with 1/2 {T, T} as a sum over pairs and the sign of P per monomial.
``lagrangian_integral_full`` is the earlier gauge integral: it subtracts
the damping as a Poly and forms the whole product P * exp(N) before the
Berezin integral.  ``integrate_top`` is the integral of the route that
followed: it forms only the term pairs whose odd parts cover every odd
field, as a ``top`` Poly.  Both integrate by ``berezin_loop``, which the
tests check against ``berezin_right_deriv`` and closed forms, and then by
``gaussian_expectation``.  The library forms only the products that reach
a moment and accumulates them by even exponent, with no Poly between.
``exp_pairs_by_key`` merges the pairs of an ExpElement under each
exponent's canonical key and sorts on it; the library compares exponents
as terms dicts and takes the key only to sort.

``mul_into_left_outer`` is the earlier multiply-accumulate kernel, whose
outer loop always runs over the left factor; the library's kernel loops
over the shorter factor.  ``violations_square`` is the earlier reader of
the Jacobi and representation residuals, which applies the BRST table to
each generator's whole image; the library sums per-monomial images that
it builds once per call.  ``ce_basis_split`` is the earlier cochain basis,
with one branch for p = 0 and one for p = 1; the library builds every
C^(p, q) from one list of degree-p module monomials.  ``rational_spectrum``
finds the eigenvalues of a matrix diagonalizable over Q by scanning every
candidate a/d up to the bound sqrt(tr A^2) and taking nullities by
Gauss-Jordan elimination on Fractions; the library takes integer roots of
the characteristic polynomial by Newton's method.  ``_kernel`` is the
earlier eigenspace route: dense fraction-free Gauss-Jordan elimination of
B - lambda, with ``_eliminate`` clearing one column at a time, and one
primitive integer vector per free column.  The library reads each kernel
off the sparse echelon form that also ranks (``linalg.kernel``), by
back-substitution.

The sum-loop routes build every step of a sum as a new Poly: the product
term pair by term pair through the filtering constructor, each sign from a
bubble sort of the two odd slot lists (``brute_merge_sign``), a derivation
as the sum over generators of image times left derivative, delta and the
antibracket as sums over pairs, and substitution as a sum over terms of
factor-by-factor products.  The library accumulates each of these into one
terms dict through its multiply-accumulate kernel; its substitution also
groups the terms by their assigned part and multiplies only the assigned
factors, with the Koszul sign of splitting them off, checks the images
once, and shares the image products between Polys split against them.

The BRST routes build the Lie-algebra differential the textbook way, with
c^i -> (1/2) f^i_jk c^j c^k summed over both orders of (j, k) as Scalar
Polys, and the Chevalley-Eilenberg images by applying that Derivation to
each cochain monomial, and the adjoint action by a lookup per index
triple.  The library builds one rational table of the images, with each
pair j < k entered once, and applies it over Q.  The
Chevalley-Eilenberg oracle ranks every differential of the complex; the
library ranks only the lower half of it when every tr ad(e_k) is zero, by
Poincare duality, and only its weight-zero subcomplex when a basis element
acts diagonally.  ``ce_weight_zero_keys`` names that subcomplex by testing
the weight of every basis monomial; the library joins two half-size tables
of ghost subsets instead.

The hbar ladder of the quantum master equation is built order by order:
``hbar_equations_loop`` sums the brackets of each pair of hbar orders and
the Laplacian of the order below.  The library reads the same rows off the
residual {S,S} - 2 i hbar delta(S) split by hbar power.
``extract_by_bracket`` takes each image of the derivation behind an
antifield-linear S1 as the antibracket {S1, x} with the field x; the
library reads every image off one right-derivative sweep by the antifields.

``bv_identity_suite_unshared`` is the earlier identity suite: every
identity forms its own brackets, Laplacians and products, and takes each
Koszul sign as a product with +-1.  The library forms the values that
several identities read once per triple.  ``random_poly_monomials`` is the
earlier draw, which builds each term through ``Context.monomial`` with a
``Fraction``-built Scalar; the library builds the monomial and the integer
Scalar triple itself, and must make the same rng calls in the same order.

``FractionScalar`` is the earlier ``Scalar``: a pair of ``Fraction`` parts
per hbar power, re-normalized by ``Fraction`` on every operation.  The
library's integer-triple ``Scalar`` must agree with it on every query.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, isqrt, lcm
from operator import add

from bvcalc.derivations import Derivation, _apply_into
from bvcalc.gauge import (ExpElement, NonNormalizedDamping, _exp_nilpotent, _nilpotent_part,
                          gaussian_expectation, restrict_to_lagrangian, standard_damping)
from bvcalc.identities import IDENTITY_NAMES, MAX_DEGREE, TERMS
from bvcalc.lie import _ce_basis, _ce_table, _image, rep_context
from bvcalc.linalg import ExactMatrix, pivot_leads
from bvcalc.scalars import Scalar, _atom, _guard
from bvcalc.superalgebra import EVEN, ODD, Poly, _add_into, _mask_bits, _mul_into


def matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    if a.ncols != b.nrows:
        raise ValueError("shape mismatch")
    rows = [[sum((a.rows[i][k] * b.rows[k][j] for k in range(a.ncols)), Fraction(0))
             for j in range(b.ncols)]
            for i in range(a.nrows)]
    return ExactMatrix(rows, b.ncols)


def bareiss_rank(rows) -> int:
    """Rank of a dense rational matrix by fraction-free (Bareiss) elimination."""
    m = []
    for row in rows:
        row = [Fraction(x) for x in row]
        scale = lcm(*(x.denominator for x in row)) if row else 1
        m.append([int(x * scale) for x in row])
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, nrows) if m[r][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        for r in range(row + 1, nrows):
            for c in range(col + 1, ncols):
                m[r][c] = (m[row][col] * m[r][c] - m[r][col] * m[row][c]) // prev
            m[r][col] = 0
        prev = m[row][col]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def fraction_rank(rows) -> int:
    """Rank of a dense rational matrix by Gauss-Jordan elimination on Fractions."""
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] / rows[rank][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def rational_spectrum(rows):
    """{eigenvalue: nullity} of a square rational matrix A that is
    diagonalizable over Q, else None.  With d the lcm of its denominators,
    d A has algebraic-integer eigenvalues, so a rational one is a/d for an
    integer a, and |a| <= d sqrt(tr A^2) when every eigenvalue is real; each
    such a/d is scanned."""
    n = len(rows)
    d = lcm(*(Fraction(x).denominator for row in rows for x in row))
    square = sum(Fraction(rows[i][j]) * rows[j][i] for i in range(n) for j in range(n))
    bound = isqrt(max(0, int(square * d * d)))
    spectrum = {}
    for a in range(-bound, bound + 1):
        value = Fraction(a, d)
        nullity = n - fraction_rank([[x - value * (i == j) for j, x in enumerate(row)]
                                     for i, row in enumerate(rows)])
        if nullity:
            spectrum[value] = nullity
    return spectrum if sum(spectrum.values()) == n else None


def _eliminate(row, pivot, col):
    """row with its entry at col cleared by pivot, divided by its gcd."""
    if not row[col]:
        return row
    row = [pivot[col] * x - row[col] * y for x, y in zip(row, pivot)]
    g = gcd(*row) or 1
    return [x // g for x in row]


def _kernel(b, value: int) -> list:
    """[(free column, primitive integer vector)] spanning the kernel of
    b - value, one per free column of its Gauss-Jordan form."""
    n = len(b)
    rest = [[x - value * (i == j) for j, x in enumerate(row)] for i, row in enumerate(b)]
    pivots = []
    for col in range(n):
        pivot = next((row for row in rest if row[col]), None)
        if pivot is not None:
            rest = [_eliminate(row, pivot, col) for row in rest if row is not pivot]
            pivots = [(c, _eliminate(row, pivot, col)) for c, row in pivots] + [(col, pivot)]
    scale = lcm(*(row[c] for c, row in pivots))
    out = []
    for free in sorted(set(range(n)) - {c for c, _ in pivots}):
        vec = [0] * n
        vec[free] = scale
        for c, row in pivots:
            vec[c] = -row[free] * scale // row[c]
        g = gcd(*vec)
        out.append((free, [x // g for x in vec]))
    return out


def first_split_element(model, p: int):
    """Oracle for the element ``lie.ce_cohomology_dims`` changes basis by:
    (h, spectrum of ad h, spectrum of the action of h) for the first basis
    vector h whose ad and, at p = 1, whose module action are diagonalizable
    over Q with some eigenvalue nonzero (the action counts as empty at
    p = 0), by ``rational_spectrum``; None if there is none."""
    for h in range(model.dim):
        spectra = [rational_spectrum(action_matrix(model.adjoint(), h).rows),
                   rational_spectrum(action_matrix(model, h).rows) if p else {}]
        if None not in spectra and any(any(s) for s in spectra):
            return h, *spectra
    return None


def f_at(model, i, j, k) -> Fraction:
    """The structure constant f^i_jk of a ``LieModel``, zero when absent."""
    return model.f.get((i, j, k), Fraction(0))


def action_matrix(model, k: int) -> ExactMatrix:
    """Matrix of basis vector k acting on the module."""
    n = model.module_dim
    return ExactMatrix([[model.rho.get((i, j, k), 0) for j in range(n)]
                        for i in range(n)], n)


def adjoint_loop(model) -> dict:
    """rho of the adjoint action, rho[i, j, k] = f[i, k, j], by a lookup
    per index triple."""
    rng = range(model.dim)
    return {(i, j, k): f_at(model, i, k, j)
            for i in rng for j in rng for k in rng if f_at(model, i, k, j)}


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
                total += (f_at(model, l, j, k) * f_at(model, i, l, m)
                          + f_at(model, l, k, m) * f_at(model, i, l, j)
                          + f_at(model, l, m, j) * f_at(model, i, l, k))
            residual.append(total)
        if any(residual):
            out.append(((j, k, m), residual))
    return out


def rep_commutator_check(model):
    """Violations of rho([g_j, g_k]) = rho(g_j) rho(g_k) - rho(g_k) rho(g_j),
    each residual a tuple of row tuples of ``Fraction``."""
    out = []
    n, m = model.module_dim, model.dim
    mats = [action_matrix(model, k) for k in range(m)]
    for j, k in combinations(range(m), 2):
        lhs = [[sum((f_at(model, l, j, k) * mats[l].rows[a][b] for l in range(m)),
                    Fraction(0)) for b in range(n)] for a in range(n)]
        comm_jk = matmul(mats[j], mats[k])
        comm_kj = matmul(mats[k], mats[j])
        residual = [[lhs[a][b] - comm_jk.rows[a][b] + comm_kj.rows[a][b]
                     for b in range(n)] for a in range(n)]
        if any(any(row) for row in residual):
            out.append(((j, k), tuple(map(tuple, residual))))
    return out


def _unit(n: int, j: int) -> tuple:
    return tuple(int(s == j) for s in range(n))


def ce_basis_split(n_even: int, n_odd: int, p: int, q: int):
    """The earlier ``lie._ce_basis``: the keys of C^(p, q) with the module
    part a branch on p, the zero tuple at p = 0 and the units at p = 1."""
    masks = [sum(1 << i for i in combo) for combo in combinations(range(n_odd), q)]
    if p == 0:
        return [((0,) * n_even, mask) for mask in masks]
    return [(_unit(n_even, v), mask) for v in range(n_even) for mask in masks]


def violations_square(table, check: str):
    """The earlier ``lie._violations``: D^2 of each generator by applying
    the table to its whole image, so D(c^j c^k) is built once per generator
    whose image holds c^j c^k.  Same output as the library's reader."""
    even, odd, slots = table
    n = len(even)
    jacobi = check == "jacobi"
    keys = [(0,) * n] if jacobi else [_unit(n, b) for b in range(n)]
    squares = [_apply_into({}, slots, img) for img in (odd if jacobi else even)]
    masks = {mask for sq in squares for (_, mask), c in sq.items() if c}
    out = []
    for bits, mask in sorted((_mask_bits(mask), mask) for mask in masks):
        rows = [tuple(Fraction(sq.get((key, mask), 0)) for key in keys) for sq in squares]
        out.append((tuple(bits), [c for c, in rows] if jacobi else tuple(rows)))
    return out


def brst_half_sum(model, ctx) -> Derivation:
    """The BRST differential on ctx, a ``ghost_context`` or a
    ``rep_context``: c^i -> (1/2) f^i_jk c^j c^k over both orders of (j, k),
    and v^i -> rho^i_jk v^j c^k for the even generators ctx has."""
    vs, cs = ctx.even_names, ctx.odd_names
    half = Fraction(1, 2)
    images = {}
    for i, cname in enumerate(cs):
        images[cname] = ctx.zero()
        for (ii, j, k), val in model.f.items():
            if ii == i:
                images[cname] += ctx.monomial(half * val, odd=[cs[j], cs[k]])
    for i, vname in enumerate(vs):
        images[vname] = ctx.zero()
        for (ii, j, k), val in model.rho.items():
            if ii == i:
                images[vname] += ctx.monomial(val, even={vs[j]: 1}, odd=[cs[k]])
    return Derivation(ctx, ODD, images)


def ce_images_scalar(model, p: int):
    """[(basis of C^(p,q), images)] for q = 0..dim, each image the Fraction
    coefficients of ``brst_half_sum`` applied to one basis monomial."""
    ctx = rep_context(model)
    D = brst_half_sum(model, ctx)
    out = []
    for q in range(model.dim + 1):
        masks = [_bits_mask(bits) for bits in combinations(range(model.dim), q)]
        if p == 0:
            basis = [((0,) * ctx.n_even, mask) for mask in masks]
        else:
            basis = [(tuple(int(s == v) for s in range(ctx.n_even)), mask)
                     for v in range(ctx.n_even) for mask in masks]
        images = [{m: c.as_fraction()
                   for m, c in D.apply(Poly(ctx, {key: Scalar.one()})).terms.items()}
                  for key in basis]
        out.append((basis, images))
    return out


def ce_images(model, p: int):
    """[(basis of C^(p,q), images)] for q = 0..dim: not an oracle but a
    reader of the library's rational image of each cochain monomial, taken
    through ``lie._image`` as the ranking and ``ce_matrices`` take it, with
    the cancelled zeros dropped and each coefficient's int or Fraction type
    kept."""
    slots = _ce_table(model, p)[2]
    out = []
    for q in range(model.dim + 1):
        basis = _ce_basis(model.module_dim, model.dim, p, q)
        out.append((basis, [{m: c for m, c in _image({}, slots, key).items() if c}
                            for key in basis]))
    return out


def ce_weight_zero_keys(model, p: int, q: int):
    """Brute force for the weight-zero route of ``ce_cohomology_dims``: the
    keys of ``_ce_basis`` whose weight vanishes under every basis element h
    whose ad is diagonal (f^i_hk = 0 for i != k) and, at p = 1, whose module
    action is diagonal too.  The weight of c^k is f^k_hk, that of v^a is
    rho^a_ah, and a monomial weighs the sum over its factors.  With no such
    h every key is kept."""
    n, m = model.dim, model.module_dim
    rng = range(n)
    hs = [h for h in rng
          if not any(f_at(model, i, h, k) for i in rng for k in rng if i != k)
          and not (p and any(model.rho.get((a, b, h), 0)
                             for a in range(m) for b in range(m) if a != b))]

    def weight(key, h):
        exps, mask = key
        return (sum(f_at(model, k, h, k) for k in rng if mask >> k & 1)
                + sum(e * model.rho.get((a, a, h), 0) for a, e in enumerate(exps)))
    return [key for key in _ce_basis(m, n, p, q) if all(weight(key, h) == 0 for h in hs)]


def ce_cohomology_dims_full(model, p: int):
    """Oracle for the duality route of ``ce_cohomology_dims``: every
    differential d_0..d_dim is built and ranked, traceless or not."""
    dims = []
    prev_rank = 0
    for basis, images in ce_images(model, p):
        rank = len(pivot_leads(images))
        dims.append(len(basis) - rank - prev_rank)
        prev_rank = rank
    return dims


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


def parity_split(poly: Poly):
    """(even part, odd part)."""
    even, odd = {}, {}
    for m, c in poly.terms.items():
        (odd if m[1].bit_count() & 1 else even)[m] = c
    return Poly(poly.ctx, even), Poly(poly.ctx, odd)


def right_deriv_split(poly: Poly, name: str) -> Poly:
    """(-1)^(parity(v)*parity(component)) * left derivative, per component."""
    v_par = poly.ctx.parity_of(name)
    out = poly.ctx.zero()
    for part, par in zip(parity_split(poly), (EVEN, ODD)):
        d = part.left_deriv(name)
        if v_par and par:
            d = -d
        out = out + d
    return out


def bracket_split(bvs, phi: Poly, psi: Poly) -> Poly:
    """The antibracket with left derivatives only, per homogeneous part:
        sum_i (-1)^(p(x+_i) p(Phi))          dPhi/dx+_i * dPsi/dx^i
            - (-1)^((p(Phi)+1)(p(Psi)+1) + p(x+_i) p(Psi)) dPsi/dx+_i * dPhi/dx^i
    """
    ctx = bvs.ctx
    out = ctx.zero()
    for phi_h, p_phi in zip(parity_split(phi), (EVEN, ODD)):
        if phi_h.is_zero:
            continue
        for psi_h, p_psi in zip(parity_split(psi), (EVEN, ODD)):
            if psi_h.is_zero:
                continue
            for f, a in bvs.pairs:
                p_a = ctx.parity_of(a)
                t1 = phi_h.left_deriv(a) * psi_h.left_deriv(f)
                if p_a and p_phi:
                    t1 = -t1
                t2 = psi_h.left_deriv(a) * phi_h.left_deriv(f)
                if ((p_phi + 1) * (p_psi + 1) + p_a * p_psi) % 2 == 0:
                    t2 = -t2
                out = out + t1 + t2
    return out


def berezin_loop(poly: Poly, odd_names) -> Poly:
    """Iterated Berezin integrals, innermost = last listed: each one keeps the
    monomials containing the variable, with the sign of moving it rightmost."""
    out = poly
    for name in reversed(list(odd_names)):
        parity, s = poly.ctx.slot(name)
        if parity != ODD:
            raise ValueError(f"{name} is not odd")
        bit = 1 << s
        terms = {}
        for (exps, mask), c in out.terms.items():
            if not mask & bit:
                continue
            behind = (mask >> (s + 1)).bit_count()
            c2 = -c if behind & 1 else c
            mono = (exps, mask ^ bit)
            terms[mono] = terms[mono] + c2 if mono in terms else c2
        out = Poly(out.ctx, terms)
    return out


def berezin_right_deriv(poly: Poly, odd_names) -> Poly:
    """Iterated Berezin integrals, innermost = last listed, each one minus
    the right derivative by its variable."""
    out = poly
    for name in reversed(list(odd_names)):
        if poly.ctx.parity_of(name) != ODD:
            raise ValueError(f"{name} is not odd")
        out = -out.right_deriv(name)
    return out


def exp_pairs_by_key(pairs) -> tuple:
    """The pairs an ExpElement holds: the P of each T summed under T.key(),
    zero sums dropped, sorted by that key."""
    merged = {}
    for p, t in pairs:
        entry = merged.setdefault(t.key(), [None, t])
        entry[0] = p if entry[0] is None else entry[0] + p
    return tuple((p, t) for _, (p, t) in sorted(merged.items(), key=lambda kv: kv[0])
                 if not p.is_zero)


def exp_delta_split(element):
    """delta of a sum of P*exp(T), per parity-homogeneous part of P:
    delta(P) + (-1)^p(P) {P, T} + (-1)^p(P) P (delta(T) + 1/2 {T, T})."""
    bvs = element.bvs
    out = []
    for p, t in element.pairs:
        curvature = bvs.delta(t) + Fraction(1, 2) * bracket_split(bvs, t, t)
        for p_h, par in zip(parity_split(p), (EVEN, ODD)):
            if p_h.is_zero:
                continue
            coeff = bracket_split(bvs, p_h, t) + p_h * curvature
            if par:
                coeff = -coeff
            out.append((bvs.delta(p_h) + coeff, t))
    return ExpElement(bvs, out)


def lagrangian_integral_full(element, fermion) -> Scalar:
    """The earlier ``gauge.lagrangian_integral``: per restricted pair, the
    nilpotent part N = T - damping as a Poly, the whole product P * exp(N),
    Berezin integration over the odd fields and the Gaussian moments."""
    bvs = element.bvs
    ctx = bvs.ctx
    restricted = restrict_to_lagrangian(element, fermion)
    damping = standard_damping(bvs)
    odd_fields = [f for f, _ in bvs.pairs if ctx.parity_of(f) == ODD]
    total = Scalar.zero()
    for p, t in restricted.pairs:
        nil = t - damping
        if any(not mask for (_, mask) in nil.terms):
            raise NonNormalizedDamping(f"exponent body {t} is not the standard damping")
        body = berezin_loop(p * exp_nilpotent(nil), odd_fields)
        total = total + gaussian_expectation(body)
    return total


def integrate_top(bvs, restricted_pairs) -> Scalar:
    """The earlier ``gauge._integrate`` of restricted, merged (P, T) pairs:
    per pair, N = T - damping checked, exp(N) on terms dicts grouped by odd
    mask, the ``top`` Poly of the P terms that complete each mask times its
    group, then ``berezin_loop`` over the odd fields and
    ``gaussian_expectation``."""
    damping = standard_damping(bvs).terms
    odds = bvs._field_sweep[1]  # the odd fields' (index, bit) pairs
    odd_fields = [bvs.pairs[i][0] for i, _ in odds]
    need = sum(bit for _, bit in odds)
    total = Scalar.zero()
    for p, t in restricted_pairs:
        groups = {}  # the terms of exp(N) by odd mask
        for mono, c in _exp_nilpotent(bvs.ctx, _nilpotent_part(damping, t)).items():
            groups.setdefault(mono[1], {})[mono] = c
        top = {}
        for mask, b in groups.items():
            _mul_into(top, {m: c for m, c in p.terms.items()
                            if not m[1] & mask and (m[1] | mask) & need == need}, b)
        total = total + gaussian_expectation(berezin_loop(Poly(bvs.ctx, top), odd_fields))
    return total


def exp_nilpotent(nil: Poly) -> Poly:
    """exp(N) as the sum of N^k / k! up to the first vanishing power."""
    ctx = nil.ctx
    out = power = ctx.one()
    k = 1
    while not (power := power * nil).is_zero:
        out = out + Fraction(1, factorial(k)) * power
        k += 1
    return out


def add_pairwise(p: Poly, q: Poly) -> Poly:
    """p + q on a copy of p's terms, zeros dropped by the Poly constructor."""
    terms = dict(p.terms)
    for m, c in q.terms.items():
        terms[m] = terms[m] + c if m in terms else c
    return Poly(p.ctx, terms)


def brute_merge_sign(left, right):
    """Independent Koszul-sign oracle: bubble-sort the concatenated index
    lists and count the swaps; None when an index repeats."""
    seq = list(left) + list(right)
    if len(set(seq)) != len(seq):
        return None
    swaps = 0
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                swaps += 1
    return -1 if swaps % 2 else 1


def mul_pairwise(p: Poly, q: Poly) -> Poly:
    """p * q term pair by term pair, with the Koszul sign of
    ``brute_merge_sign`` on the two odd slot lists."""
    terms = {}
    for (e1, m1), c1 in p.terms.items():
        for (e2, m2), c2 in q.terms.items():
            sign = brute_merge_sign(_mask_bits(m1), _mask_bits(m2))
            if sign is None:
                continue
            mono = (tuple(a + b for a, b in zip(e1, e2)), m1 | m2)
            c = c1 * c2
            if sign < 0:
                c = -c
            terms[mono] = terms[mono] + c if mono in terms else c
    return Poly(p.ctx, terms)


def mul_into_left_outer(terms: dict, a: dict, b: dict) -> dict:
    """The earlier ``superalgebra._mul_into``: a * b added into ``terms``
    with the outer loop always over a, the left factor, and zeros kept."""
    get = terms.get
    for (e1, m1), c1 in a.items():
        neg = None
        # bit j of above1 is the parity of the odd factors of a above slot j
        above1 = 0
        m = m1
        while m:
            low = m & -m
            above1 ^= low - 1
            m ^= low
        for (e2, m2), c2 in b.items():
            if m1 & m2:
                continue
            if (above1 & m2).bit_count() & 1:
                if neg is None:
                    neg = -c1
                c = neg * c2
            else:
                c = c1 * c2
            mono = (tuple(map(add, e1, e2)), m1 | m2)
            prev = get(mono)
            terms[mono] = c if prev is None else prev + c
    return terms


def apply_sum(D, poly: Poly) -> Poly:
    """sum over generators v with an image of D(v) * d/dv poly."""
    out = D.ctx.zero()
    for name, img in D.images.items():
        out = add_pairwise(out, mul_pairwise(img, poly.left_deriv(name)))
    return out


def delta_sum(bvs, phi: Poly) -> Poly:
    """sum over pairs of the antifield derivative of the field derivative."""
    out = bvs.ctx.zero()
    for f, a in bvs.pairs:
        out = add_pairwise(out, phi.left_deriv(f).left_deriv(a))
    return out


def bracket_sum(bvs, phi: Poly, psi: Poly) -> Poly:
    """sum over pairs of <-dPhi/dx+ dPsi/dx + <-dPhi/dx dPsi/dx+."""
    out = bvs.ctx.zero()
    for f, a in bvs.pairs:
        out = add_pairwise(out, mul_pairwise(phi.right_deriv(a), psi.left_deriv(f)))
        out = add_pairwise(out, mul_pairwise(phi.right_deriv(f), psi.left_deriv(a)))
    return out


def substitute_sum(poly: Poly, assignments) -> Poly:
    """The substitution oracle for ``Poly.substitute``: each term's
    coefficient times the images of all its factors (an unassigned generator
    is its own image), even ones first, then odd ones in canonical order;
    the terms summed one by one.  No grouping and no split sign."""
    ctx = poly.ctx
    images = {name: img if isinstance(img, Poly) else ctx.scalar(img)
              for name, img in assignments.items()}
    out = ctx.zero()
    for (exps, mask), c in poly.terms.items():
        factors = [name for s, k in enumerate(exps) for name in [ctx.even_names[s]] * k]
        factors += [ctx.odd_names[s] for s in _mask_bits(mask)]
        term = ctx.scalar(c)
        for name in factors:
            term = mul_pairwise(term, images[name] if name in images else ctx.gen(name))
        out = add_pairwise(out, term)
    return out


def extract_by_bracket(bvs, s1: Poly) -> Derivation:
    """The oracle for ``BVSpace.extract_derivation``: the field-space
    derivation whose image of each field x is the antibracket {S1, x},
    one full bracket per field."""
    if any(bvs.antifield_degree(m) != 1 for m in s1.terms):
        raise ValueError("antifield degree must be exactly 1")
    images = {}
    for f, _ in bvs.pairs:
        img = bvs.bracket(s1, bvs.ctx.gen(f))
        if not img.is_zero:
            images[f] = bvs.ctx.transport(img, bvs.field_ctx)
    return Derivation(bvs.field_ctx, (s1.parity() + 1) % 2, images)


def hbar_equations_loop(bvs, s: Poly):
    """The oracle for ``BVSpace.hbar_equations``: with S = sum hbar^k S_k,
    R_k = sum_{a+b=k} {S_a, S_b} - 2 i delta(S_(k-1)) built pair of hbar
    orders by pair of orders, for k from the lowest to the highest order the
    residual can reach; the nonzero rows, k ascending."""
    parts = dict(s.hbar_decompose())
    if not parts:
        return []
    lo, hi = min(parts), max(parts)
    two_i = Scalar.i() * 2
    out = []
    for k in range(min(2 * lo, lo + 1), max(2 * hi, hi + 1) + 1):
        r = bvs.ctx.zero()
        for a in range(lo, hi + 1):
            if a in parts and k - a in parts:
                r = r + bvs.bracket(parts[a], parts[k - a])
        if k - 1 in parts:
            r = r - two_i * bvs.delta(parts[k - 1])
        if not r.is_zero:
            out.append((k, r))
    return out


def random_scalar_fraction(rng, hbar_max: int = 0) -> Scalar:
    re = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    im = Fraction(rng.randint(-3, 3), rng.randint(1, 2)) if rng.random() < 0.4 else 0
    power = rng.randint(0, hbar_max) if hbar_max else 0
    s = Scalar({power: (re, im)})
    if s.is_zero:
        return Scalar.of(1)
    return s


def random_poly_monomials(rng, ctx, max_degree: int = 4, terms: int = 4,
                          parity=None, hbar_max: int = 0) -> Poly:
    """The oracle for ``randgen.random_poly``: each term built by
    ``Context.monomial`` from generator names and a Fraction-built Scalar."""
    names = [g.name for g in ctx.generators]
    out = {}
    for _ in range(terms):
        d = rng.randint(0, max_degree)
        picks = [rng.choice(names) for _ in range(d)]
        odd = [g for g in picks if ctx.parity_of(g) == ODD]
        if len(set(odd)) != len(odd):
            continue
        if parity is not None and len(odd) % 2 != parity:
            continue
        even: dict[str, int] = {}
        for g in picks:
            if ctx.parity_of(g) == EVEN:
                even[g] = even.get(g, 0) + 1
        _add_into(out, ctx.monomial(random_scalar_fraction(rng, hbar_max), even, odd).terms)
    return Poly(ctx, out)


def random_homogeneous_monomials(rng, ctx, max_degree: int = 4, terms: int = 4):
    parity = rng.randint(0, 1)
    return parity, random_poly_monomials(rng, ctx, max_degree, terms, parity)


def bv_identity_suite_unshared(bvs, seed: int, triples: int) -> dict:
    """The oracle for ``identities.bv_identity_suite``: each identity forms
    every value it reads afresh."""
    rng = random.Random(seed)
    fails = {name: 0 for name in IDENTITY_NAMES}
    for _ in range(triples):
        pf, phi = random_homogeneous_monomials(rng, bvs.ctx, MAX_DEGREE, TERMS)
        ps, psi = random_homogeneous_monomials(rng, bvs.ctx, MAX_DEGREE, TERMS)
        pu, ups = random_homogeneous_monomials(rng, bvs.ctx, MAX_DEGREE, TERMS)

        if not bvs.delta(bvs.delta(phi)).is_zero:
            fails["delta_squared"] += 1

        if bvs.bracket(phi, psi) != bvs.bracket_via_defect(phi, psi):
            fails["bracket_matches_defect"] += 1

        sign = -1 if ((pf + 1) * (ps + 1)) % 2 else 1
        if bvs.bracket(psi, phi) != -sign * bvs.bracket(phi, psi):
            fails["odd_anticommutativity"] += 1

        sign = -1 if ((pf + 1) * ps) % 2 else 1
        lhs = bvs.bracket(phi, psi * ups)
        rhs = bvs.bracket(phi, psi) * ups + sign * psi * bvs.bracket(phi, ups)
        if lhs != rhs:
            fails["odd_poisson"] += 1

        sign = -1 if ((pf + 1) * (ps + 1)) % 2 else 1
        lhs = bvs.bracket(phi, bvs.bracket(psi, ups))
        rhs = bvs.bracket(bvs.bracket(phi, psi), ups) \
            + sign * bvs.bracket(psi, bvs.bracket(phi, ups))
        if lhs != rhs:
            fails["odd_jacobi"] += 1

        sign = -1 if (pf + 1) % 2 else 1
        lhs = bvs.delta(bvs.bracket(phi, psi))
        rhs = bvs.bracket(bvs.delta(phi), psi) + sign * bvs.bracket(phi, bvs.delta(psi))
        if lhs != rhs:
            fails["delta_derives_bracket"] += 1

        s_f = -1 if pf % 2 else 1
        s_fs = -1 if (pf + ps) % 2 else 1
        s_f1s = -1 if ((pf + 1) * ps) % 2 else 1
        lhs = (bvs.delta(phi * psi * ups) + bvs.delta(phi) * psi * ups
               + s_f * phi * bvs.delta(psi) * ups
               + s_fs * phi * psi * bvs.delta(ups))
        rhs = (bvs.delta(phi * psi) * ups + s_f * phi * bvs.delta(psi * ups)
               + s_f1s * psi * bvs.delta(phi * ups))
        if lhs != rhs:
            fails["seven_terms"] += 1
    return fails


class FractionScalar:
    """Q(i)[hbar, hbar^-1] as {k: (Fraction re, Fraction im)}; the slow oracle."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for k, (re, im) in terms.items():
                re, im = Fraction(re), Fraction(im)
                if re or im:
                    clean[int(k)] = (re, im)
        self._terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def of(cls, value) -> "FractionScalar":
        """Coerce an int, Fraction or FractionScalar into a FractionScalar."""
        if isinstance(value, FractionScalar):
            return value
        if isinstance(value, (int, Fraction)):
            return cls({0: (value, 0)})
        raise TypeError(f"cannot make a FractionScalar out of {value!r}")

    @classmethod
    def zero(cls) -> "FractionScalar":
        return cls()

    @classmethod
    def one(cls) -> "FractionScalar":
        return cls({0: (1, 0)})

    @classmethod
    def i(cls) -> "FractionScalar":
        return cls({0: (0, 1)})

    @classmethod
    def hbar(cls, power: int = 1, coeff=1) -> "FractionScalar":
        return cls({power: (coeff, 0)})

    # -- queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def hbar_powers(self):
        return sorted(self._terms)

    def component(self, k: int) -> "FractionScalar":
        """The (a_k + b_k*i) piece, with the hbar power stripped off."""
        if k in self._terms:
            return FractionScalar({0: self._terms[k]})
        return FractionScalar()

    def split_hbar(self):
        """[(k, hbar-free FractionScalar)] with k ascending; sums back to self*hbar^k."""
        return [(k, FractionScalar({0: self._terms[k]})) for k in sorted(self._terms)]

    def as_fraction(self) -> Fraction:
        """The value as an exact rational; raises if i or hbar is present."""
        if not self._terms:
            return Fraction(0)
        if set(self._terms) != {0}:
            raise ValueError(f"scalar {self} carries hbar, not a plain rational")
        re, im = self._terms[0]
        if im:
            raise ValueError(f"scalar {self} has an imaginary part")
        return re

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, (FractionScalar, int, Fraction)):
            return NotImplemented
        other = FractionScalar.of(other)
        terms = dict(self._terms)
        for k, (re, im) in other._terms.items():
            re0, im0 = terms.get(k, (Fraction(0), Fraction(0)))
            terms[k] = (re0 + re, im0 + im)
        return FractionScalar(terms)

    __radd__ = __add__

    def __neg__(self):
        return FractionScalar({k: (-re, -im) for k, (re, im) in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, (FractionScalar, int, Fraction)):
            return NotImplemented
        return self + (-FractionScalar.of(other))

    def __rsub__(self, other):
        return FractionScalar.of(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, (FractionScalar, int, Fraction)):
            return NotImplemented
        other = FractionScalar.of(other)
        terms = {}
        for k1, (a, b) in self._terms.items():
            for k2, (c, d) in other._terms.items():
                k = k1 + k2
                re0, im0 = terms.get(k, (Fraction(0), Fraction(0)))
                terms[k] = (re0 + a * c - b * d, im0 + a * d + b * c)
        return FractionScalar(terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FractionScalar.of(other)
        if not isinstance(other, FractionScalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        # a real, hbar-free scalar equals its Fraction, so it hashes as one
        re, im = self._terms.get(0, (Fraction(0), Fraction(0)))
        if self._terms.keys() <= {0} and not im:
            return hash(re)
        return hash(self.key())

    def key(self):
        """Canonical hashable form (used for deterministic ordering)."""
        return tuple((k, re, im) for k, (re, im) in sorted(self._terms.items()))

    # -- rendering ----------------------------------------------------

    def atoms(self):
        """List of (sign, magnitude_text) pieces in canonical order.

        Magnitude texts are grammar-compatible factors like ``1/2``, ``2*i``,
        ``hbar^2`` or ``3*i*hbar``; the sign is +1 or -1.
        """
        out = []
        for k in sorted(self._terms):
            re, im = self._terms[k]
            if re:
                out.append(_atom(re, k, imag=False))
            if im:
                out.append(_atom(im, k, imag=True))
        return out

    def __str__(self):
        atoms = self.atoms()
        if not atoms:
            return "0"
        parts = []
        for n, (sign, text) in enumerate(atoms):
            if n == 0:
                parts.append("-" + _guard(text) if sign < 0 else text)
            else:
                parts.append(" - " + _guard(text) if sign < 0 else " + " + text)
        return "".join(parts)

    def __repr__(self):
        return f"FractionScalar({self})"
