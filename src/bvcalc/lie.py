"""Lie algebra and module data given by exact structure constants.

Conventions, fixed once here and used everywhere:

* ``f[i, j, k]`` is the e_i-coefficient of the bracket of basis vectors j and
  k; the table is antisymmetric in (j, k) and entered with j < k only.
* ``rho[i, j, k]`` is the e_i-coefficient of basis vector k acting on module
  vector j, so the matrix of the k-th action has (i, j) entry rho[i, j, k].
* The ghost differential sends c^i to (1/2) f^i_jk c^j c^k and, when a module
  is present, v^i to rho^i_jk v^j c^k.

Every quantity here is computed over Q from one BRST table,
``_brst_table``, built once per call (and once more for a table rewritten
in an eigenbasis, below) on ``rep_context``'s slots: the
images of the generators as terms dicts keyed by monomial, with ``int``
coefficients where the denominator is 1 and ``Fraction`` ones otherwise,
and the slot table of ``derivations._apply_into``, the Leibniz loop of
``Derivation.apply`` (each generator's image times the derivative by it),
listed in ``rep_context``'s generator order.  The Chevalley-Eilenberg
complex C^(p, *) is built from one list, the degree-p module monomials
(``_exponents``), times the ghost monomials; each cochain's image is the
same loop (``_image``), which ``ce_cohomology_dims`` and ``ce_matrices``
share.  One reader, ``_violations``, takes the residual of the generators
of module degree p (Jacobi at p = 0, the representation property at p = 1)
off D^2(g) = sum c D(m) over the terms c m of D(g), from per-monomial images
built once per call: the ghost-degree-2 ones at p = 0, the degree-1 at p = 1.
A residual is a list of ``Fraction`` for ``jacobi_check`` and a tuple of
row tuples of ``Fraction`` for ``rep_check``; no matrix type is involved.
``LieModel.build`` reads each value by ``Scalar.of``'s rule and keeps it as
a ``Fraction``, so no i or hbar can arise and no ``Scalar`` is involved
after it; only ``brst_rep`` wraps the table as Polys (``brst_lie`` is that
of the module-free model).

Poincare duality of the ghost complex.  The traces tr ad(e_k) = f^i_ik
(``_ad_traces``) are the bracket half of ``trace_condition``.  On the top
degree, d takes c^1..c^n with c^k left out to +-tr ad(e_k) c^1..c^n, so
d_(n-1): Lambda^(n-1) -> Lambda^n vanishes when every trace does.  Then for
a in Lambda^q and b in Lambda^(n-1-q) the Leibniz rule gives
0 = d(a b) = (da) b + (-1)^q a (db), so d_(n-1-q) is +- the transpose of
d_q in complementary-mask bases and the two have equal rank (Hazewinkel,
"A duality theorem for cohomology of Lie algebras", Math. USSR-Sb. 12,
1970).  The duality itself uses only the derivation property of d, but
the ranks are cohomology only when d squares to zero, which the guard
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

The weight-zero subcomplex.  Let h be a basis element whose ad is diagonal
on the basis (f^i_hk = 0 for i != k) and, at p = 1, whose module action is
diagonal too.  Contraction with h, the odd derivation i_h with c^h -> 1 and
every other generator -> 0, gives the even derivation L_h = D i_h + i_h D
(Cartan's formula), which multiplies c^k by f^k_hk and v^a by rho^a_ah, so
each monomial by the sum of its factors' weights.  With D^2 = 0, L_h
commutes with D, each weight space is a subcomplex, and a closed x of weight
w != 0 is D(i_h x / w): only weight zero carries cohomology (Hochschild &
Serre, "Cohomology of Lie algebras", Ann. Math. 57, 1953).  So, behind the
same guard, ``ce_cohomology_dims`` ranks only the monomials of weight zero
under every such h (``_weight_zero_bases``).  The complement of a weight-zero
mask weighs tr ad h, zero whenever duality is used, so both routes above
run unchanged inside the subcomplex.

A change of basis when no basis element acts diagonally.  A sheared basis
often holds an h whose ad (and, at p = 1, module action) is diagonalizable
over Q without being diagonal.  Rewritten in a basis of eigenvectors of h
that contains h, the table has h acting diagonally, and the filter applies.
The change of basis is an isomorphism of Lie algebras and of modules, so it
induces an isomorphism of cochain complexes: every rank, every trace and so
every dim and the duality test are unchanged.  ``_eigenbasis.rewrite``
takes each eigenspace from ``linalg.kernel``, the echelon form that also
ranks, and reads each new constant off one eigenspace coordinate, with no
inverse matrix, which is valid only because ad h is a derivation of the
bracket and of the action; so it runs after the guard, on a table that has
passed it, and a table that fails is refused exactly as before.  It runs
only on complexes of at least ``_EIGENBASIS_MIN_SIZE`` cochains, where it is
cheaper than ranking the whole complex (Hochschild & Serre as above;
finding a split Cartan subalgebra when no basis element will do is harder,
de Graaf, "Lie Algebras: Theory and Algorithms", 2000).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from operator import add, neg

from .derivations import Derivation, _apply_into, _slot_table
from .linalg import ExactMatrix, pivot_leads
from .scalars import Scalar
from .superalgebra import (Context, EVEN, Generator, ODD, Poly, _FrozenRecord, _mask_bits,
                           _poly)


class LieModel(_FrozenRecord):
    """Structure constants of an algebra of dimension dim acting on a
    module of dimension module_dim (0 for no module)."""

    # f and rho are mutable dicts, so a hash of their contents could change
    __hash__ = None

    def __init__(self, dim: int, module_dim: int, f: dict, rho: dict):
        vars(self).update(dim=dim, module_dim=module_dim, f=f, rho=rho)

    @classmethod
    def build(cls, dim: int, brackets=None, module_dim: int = 0, rho=None) -> "LieModel":
        """Normalize and antisymmetrize input tables.

        ``brackets`` maps (i, j, k) -> value with the convention above; both
        orders of (j, k) may appear as long as they are consistent.  Values
        are taken by ``Scalar.of`` and must be rational, so a float, str or
        bool is refused, as is a ``dim`` or ``module_dim`` that is not a
        non-negative int.
        """
        for name, n in (("dim", dim), ("module_dim", module_dim)):
            if not isinstance(n, int) or isinstance(n, bool) or n < 0:
                raise ValueError(f"{name} must be a non-negative int, not {n!r}")
        f = {}
        for (i, j, k), val in (brackets or {}).items():
            val = Scalar.of(val).as_fraction()
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
            val = Scalar.of(val).as_fraction()
            if not 0 <= i < module_dim or not 0 <= j < module_dim:
                raise ValueError("module index out of range")
            if not 0 <= k < dim:
                raise ValueError("algebra index out of range")
            if val:
                full_rho[(i, j, k)] = val
        return cls(dim, module_dim, full_f, full_rho)

    def adjoint(self) -> "LieModel":
        """Same algebra acting on itself: rho[i, j, k] = f[i, k, j]."""
        rho = {(i, j, k): val for (i, k, j), val in self.f.items() if val}
        return LieModel(self.dim, self.dim, dict(self.f), rho)


def _rational(x):
    """x as an int when its denominator is 1, else unchanged."""
    return x.numerator if x.denominator == 1 else x


def _exponents(m: int, p: int) -> list:
    """Exponent tuples of the degree-p monomials in m module coordinates, in
    ``combinations_with_replacement`` order (p = 0: zeros; p = 1: units)."""
    return [tuple(map(c.count, range(m))) for c in combinations_with_replacement(range(m), p)]


def _brst_table(model: LieModel):
    """(even images, odd images, slot table) of the BRST differential on
    ``rep_context``'s slots: one terms dict per generator, with int or
    Fraction coefficients, and the ``_slot_table`` that applies them.

    The ghost image of c^i sums (1/2) f^i_jk c^j c^k over both orders of
    (j, k), which is f^i_jk c^j c^k over j < k, and v^i maps to
    rho^i_jk v^j c^k.  With no module this is the ghost table.
    """
    n = model.module_dim
    zero = (0,) * n
    odd = [{} for _ in range(model.dim)]
    for (i, j, k), val in model.f.items():
        if j < k and val:
            odd[i][(zero, 1 << j | 1 << k)] = _rational(val)
    even, units = [{} for _ in range(n)], _exponents(n, 1)
    for (i, j, k), val in model.rho.items():
        if val:
            even[i][(units[j], 1 << k)] = _rational(val)
    # rep_context's generator order: the module coordinates, then the ghosts
    slots = [(EVEN, j) for j in range(n)] + [(ODD, i) for i in range(model.dim)]
    return even, odd, _slot_table(zip(slots, even + odd))


def _image(images: dict, slots, key):
    """D(key) for one monomial, from ``images`` or built into it."""
    image = images.get(key)
    if image is None:
        image = images[key] = _apply_into({}, slots, {key: 1})
    return image


def _take(images: dict, slots, key):
    """``_image``, which ``images`` no longer holds afterwards: the ranking
    is the last use of an image, and it keeps only its own rows."""
    return images.pop(key) if key in images else _apply_into({}, slots, {key: 1})


def _violations(table, p: int, images: dict):
    """[(odd indices, residual)] where the square of ``_brst_table``'s
    differential fails to vanish on the generators of module degree p, in
    ``combinations`` order: entry i is the c^j c^k c^m coefficient of D^2(c^i)
    at p = 0 (Jacobi), entry (a, b) the v^b c^j c^k one of D^2(v^a) at p = 1.
    A residual is a list of ``Fraction`` at p = 0 and a tuple of row tuples
    of ``Fraction`` at p = 1.

    D^2(g) is the sum of c D(m) over the terms c m of D(g), each D(m) taken
    by ``_image`` from ``images``, a monomial -> image dict that the caller
    may share with the cochain images it ranks.
    """
    even, odd, slots = table
    keys = _exponents(len(even), p)
    squares = []
    for img in (odd, even)[p]:
        square = {}
        get = square.get
        for m, c in img.items():
            for mono, x in _image(images, slots, m).items():
                prev = get(mono)
                square[mono] = c * x if prev is None else prev + c * x
        squares.append(square)
    masks = {mask for sq in squares for (_, mask), c in sq.items() if c}
    out = []
    for bits, mask in sorted((_mask_bits(mask), mask) for mask in masks):
        rows = [tuple(Fraction(sq.get((key, mask), 0)) for key in keys) for sq in squares]
        out.append((tuple(bits), tuple(rows) if p else [c for c, in rows]))
    return out


def jacobi_check(model: LieModel):
    """Violating triples (j, k, m) with their residual vectors.

    Residual entry i is the c^j c^k c^m coefficient of D^2(c^i) for
    D = brst_lie(model), which is the Jacobiator
    sum_l (f^l_jk f^i_lm + f^l_km f^i_lj + f^l_mj f^i_lk).
    """
    return _violations(_brst_table(model), 0, {})


def rep_check(model: LieModel):
    """Violations of rho([g_j, g_k]) = rho(g_j) rho(g_k) - rho(g_k) rho(g_j).

    Each residual is a tuple of row tuples of ``Fraction``: entry (a, b) of
    the residual for the pair (j, k) is the v^b c^j c^k coefficient of
    D^2(v^a) for D = brst_rep(model).
    """
    return _violations(_brst_table(model), 1, {})


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
    return brst_rep(LieModel(model.dim, 0, model.f, {}))


def brst_rep(model: LieModel, module_names=None) -> Derivation:
    """Odd derivation with v^i -> rho^i_jk v^j c^k and the ghost images, as
    the BRST table with Scalar coefficients."""
    ctx = rep_context(model, module_names)
    even, odd, _ = _brst_table(model)
    return Derivation(ctx, ODD, {
        name: _poly(ctx, {m: Scalar.of(c) for m, c in img.items()})
        for name, img in zip(ctx.even_names + ctx.odd_names, even + odd)})


def _ce_basis(n_even: int, n_odd: int, p: int, q: int):
    """Keys of C^(p, q): each degree-p module monomial times each ghost q-subset."""
    masks = [sum(bits) for bits in combinations([1 << i for i in range(n_odd)], q)]
    return [(exps, mask) for exps in _exponents(n_even, p) for mask in masks]


def _weight_zero_bases(model: LieModel, p: int):
    """The keys of C^(p, q) of weight zero under every basis element h acting
    diagonally, one list per q; None if no such h gives any generator a
    nonzero weight.  Each generator's weights under those h are one exact
    tuple of ints and Fractions, read off f^k_hk for c^k and rho^a_ah for
    v^a, so no sum of them can alias; the ghost subsets of each half are
    joined on opposite tuples (meet in the middle)."""
    n, m, f = model.dim, model.module_dim, model.f
    rho = model.rho if p else {}
    off = {h for i, h, k in f if i != k} | {h for a, b, h in rho if a != b}
    hs = [h for h in range(n) if h not in off]
    ghost = [tuple(_rational(f.get((k, h, k), 0)) for h in hs) for k in range(n)]
    module = [tuple(_rational(rho.get((a, a, h), 0)) for h in hs) for a in range(m)]
    if not any(map(any, ghost + module)):
        return None
    halves = []
    for part in (range(n // 2), range(n // 2, n)):
        subsets = [(0, 0, (0,) * len(hs))]
        for k in part:
            subsets += [(mask | 1 << k, size + 1, tuple(map(add, w, ghost[k])))
                        for mask, size, w in subsets]
        halves.append(subsets)
    right = {}
    for mask, size, w in halves[1]:
        right.setdefault(tuple(map(neg, w)), []).append((mask, size))
    bases = [[] for _ in range(n + 1)]
    for exps in _exponents(m, p):
        # the ghosts of v^e c^mask must weigh -sum_a e_a rho^a_ah
        load = [sum(e * w[j] for e, w in zip(exps, module)) for j in range(len(hs))]
        for low, size, w in halves[0]:
            for high, more in right.get(tuple(map(add, w, load)), ()):
                bases[size + more].append((exps, low | high))
    return bases


def _ce_table(model: LieModel, p: int):
    """``_brst_table(model)`` for the complex C^(p, *), which exists for
    p = 0 and, given a module, p = 1."""
    if p not in (0, 1):
        raise ValueError("only p = 0 and p = 1 are supported")
    if p == 1 and model.module_dim == 0:
        raise ValueError("p = 1 needs a module")
    return _brst_table(model)


def ce_matrices(model: LieModel, p: int):
    """Exact matrices of the ghost-degree-raising differential, q = 0..dim.

    Entry (row, col) is the coefficient of the row basis monomial in the image
    of the col basis monomial; consecutive matrices compose to zero whenever
    the structure checks pass.  Each column is read off ``_image``, the
    per-monomial image that ``ce_cohomology_dims`` ranks.
    """
    slots = _ce_table(model, p)[2]
    bases = [_ce_basis(model.module_dim, model.dim, p, q) for q in range(model.dim + 1)]
    mats = []
    for basis, dst in zip(bases, bases[1:] + [[]]):
        row_of = {key: row for row, key in enumerate(dst)}
        rows = [[0] * len(basis) for _ in dst]
        for col, key in enumerate(basis):
            for mono, value in _image({}, slots, key).items():
                rows[row_of[mono]][col] = value
        mats.append(ExactMatrix(rows, len(basis)))
    return mats


def _ad_traces(model: LieModel):
    """tr ad(e_k) = sum_i f^i_ik for k = 0..dim-1, as ints or Fractions."""
    f, dims = model.f, range(model.dim)
    return [sum(f.get((i, i, k), 0) for i in dims) for k in dims]


# The fewest cochains of C^(p, *) for which ``ce_cohomology_dims`` looks for
# an eigenbasis when no basis element acts diagonally: below it ranking the
# whole complex is cheaper.  It chooses the route, never the answer.
_EIGENBASIS_MIN_SIZE = 256


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

    Raises ``NotACochainComplex`` with the first violation that
    ``jacobi_check`` or, at p = 1, ``rep_check`` would return: the dims are
    defined only when d squares to zero.  The guard and every image come
    from one ``_brst_table``, and the guard reads D^2 off per-monomial
    images that the ranking then takes instead of building them again;
    only a table rewritten in an eigenbasis (below) is ranked from a second
    table of its own.
    Here d_q maps ghost degree q to q + 1, and each d_q is ranked on the
    basis monomials of C^q that are not pivot leads of d_(q-1), a
    complement of its image, and that have weight zero under every basis
    element acting diagonally, if any does (see the module docstring).
    If none does and the complex has at least ``_EIGENBASIS_MIN_SIZE``
    cochains, the table that passed the guard is first rewritten in an
    eigenbasis of the first basis element whose ad (and, at p = 1, module
    action) is diagonalizable over Q with a nonzero eigenvalue, if there is
    one; the isomorphic complex has the same dims and is filtered by weight.
    At p = 0 with every trace tr ad(e_k) zero, only d_q for q <= (n-1)//2 is
    built and ranked, for n = dim, and rank d_q = rank d_(n-1-q) for the
    other q < n (Poincare duality).  Otherwise d_0..d_(n-1) are ranked.
    d_n = 0 always.
    """
    table = _ce_table(model, p)
    slots, images = table[2], {}
    for k in range(p + 1):
        violations = _violations(table, k, images)
        if violations:
            raise NotACochainComplex(("jacobi", "rep")[k], violations[0])
    n = model.dim
    dual = p == 0 and not any(_ad_traces(model))
    bases = _weight_zero_bases(model, p)
    size = 2 ** n * len(_exponents(model.module_dim, p))
    if bases is None and size >= _EIGENBASIS_MIN_SIZE:
        from ._eigenbasis import rewrite
        rewritten = rewrite(model, p)
        if rewritten is not None:
            model, slots, images = rewritten, _brst_table(rewritten)[2], {}
            bases = _weight_zero_bases(model, p)
    bases = bases or [_ce_basis(model.module_dim, n, p, q) for q in range(n + 1)]
    ranks, leads = [], set()
    for basis in bases[:(n - 1) // 2 + 1 if dual else n]:
        leads = set(pivot_leads([_take(images, slots, key) for key in basis if key not in leads]))
        ranks.append(len(leads))
    ranks += [ranks[n - 1 - q] for q in range(len(ranks), n)] + [0]
    return [len(basis) - rank - prev for basis, rank, prev in zip(bases, ranks, [0] + ranks)]


def trace_condition(model: LieModel, module_names=None) -> Poly:
    """The divergence (rho^i_ik + f^i_ik) c^k as a Poly on the field context.

    Zero iff the action and the bracket are both traceless, which is exactly
    when the hbar-linear lift solves the quantum master equation.
    """
    m, rho = model.module_dim, model.rho
    traces = [t + sum(rho.get((a, a, k), 0) for a in range(m))
              for k, t in enumerate(_ad_traces(model))]
    return _poly(rep_context(model, module_names),
                 {((0,) * m, 1 << k): Scalar.of(t) for k, t in enumerate(traces) if t})
