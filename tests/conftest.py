import contextlib
import random
from pathlib import Path

import pytest

from bvcalc import BVSpace, EVEN, LieModel, ODD, gauge, superalgebra
from bvcalc.superalgebra import Context

MODELS = Path(__file__).resolve().parent.parent / "models"


@contextlib.contextmanager
def refusing_self_brackets():
    """``BVSpace.bracket`` fails while inside when handed the same Poly twice,
    or two equal nonzero ones: a self-bracket must take the half-sum route.
    Two zero parts stay allowed (``onshell`` takes {S0, S2} with both zero)."""
    original = BVSpace.bracket

    def bracket(self, phi, psi):
        if phi is psi or (phi == psi and not phi.is_zero):
            raise AssertionError(f"self-bracket of {phi} through BVSpace.bracket")
        return original(self, phi, psi)

    BVSpace.bracket = bracket
    try:
        yield
    finally:
        BVSpace.bracket = original


@contextlib.contextmanager
def splitting_each_poly_once():
    """``superalgebra._split`` (as ``gauge`` and ``superalgebra`` name it) fails
    while inside when handed a Poly it has split before: a gauge route splits
    each P and T once per call, whatever the number of gauges.  Yields the
    list of the Polys split so far, which also keeps their ids apart."""
    original = superalgebra._split
    seen = []

    def split(ctx, assigned, poly):
        if any(poly is q for q in seen):
            raise AssertionError(f"{poly} split twice in one call")
        seen.append(poly)
        return original(ctx, assigned, poly)

    superalgebra._split = gauge._split = split
    try:
        yield seen
    finally:
        superalgebra._split = gauge._split = original


@pytest.fixture
def rng():
    return random.Random(20240811)


@pytest.fixture
def ctx_mixed():
    """Two even and two odd plain generators."""
    return Context.plain([("x", EVEN), ("y", EVEN), ("t1", ODD), ("t2", ODD)])


@pytest.fixture
def bvs_2_2():
    """BV space over a 2|2 field space (eight generators total)."""
    return BVSpace.over_fields([("x1", EVEN), ("x2", EVEN),
                                ("t1", ODD), ("t2", ODD)])


@pytest.fixture
def bvs_1_1():
    return BVSpace.over_fields([("x", EVEN), ("th", ODD)])


def sl2() -> LieModel:
    """[h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    return LieModel.build(3, {(1, 0, 1): 2, (2, 0, 2): -2, (0, 1, 2): 1})


def sl2_rescaled() -> LieModel:
    """Basis (t, e, f) with t = h/2: [t,e] = e, [t,f] = -f, [e,f] = 2t."""
    return LieModel.build(3, {(1, 0, 1): 1, (2, 0, 2): -1, (0, 1, 2): 2})


def solvable2() -> LieModel:
    """[e1,e2] = e2."""
    return LieModel.build(2, {(1, 0, 1): 1})


def abelian(m: int) -> LieModel:
    return LieModel.build(m, {})


def _matrix_algebra(basis, coords) -> LieModel:
    """Structure constants of the span of integer matrices {(row, col): value}
    under the commutator; coords(matrix) gives its coordinates in the basis."""
    brackets = {}
    for j, x in enumerate(basis):
        for k in range(j + 1, len(basis)):
            comm = {}
            for (a, b), u in x.items():
                for (c, d), v in basis[k].items():
                    if b == c:
                        comm[(a, d)] = comm.get((a, d), 0) + u * v
                    if d == a:
                        comm[(c, b)] = comm.get((c, b), 0) - u * v
            for i, val in enumerate(coords(comm)):
                if val:
                    brackets[(i, j, k)] = val
    return LieModel.build(len(basis), brackets)


def gl(n: int) -> LieModel:
    """gl(n) in the basis E_ab, row-major."""
    cells = [(a, b) for a in range(n) for b in range(n)]
    return _matrix_algebra([{cell: 1} for cell in cells],
                           lambda m: [m.get(cell, 0) for cell in cells])


def sl(n: int) -> LieModel:
    """sl(n) in the basis E_aa - E_(a+1)(a+1), then the off-diagonal E_ab."""
    off = [(a, b) for a in range(n) for b in range(n) if a != b]
    basis = [{(a, a): 1, (a + 1, a + 1): -1} for a in range(n - 1)]
    basis += [{cell: 1} for cell in off]

    def coords(m):
        diag = [sum(m.get((r, r), 0) for r in range(a + 1)) for a in range(n - 1)]
        return diag + [m.get(cell, 0) for cell in off]
    return _matrix_algebra(basis, coords)


def change_basis(model: LieModel, shears) -> LieModel:
    """The same algebra in the basis e'_j = sum_b A[b][j] e_b, where A is the
    product of the elementary matrices I + s E_ab for (a, b, s) in shears."""
    n = model.dim
    mat = [[int(r == c) for c in range(n)] for r in range(n)]
    inv = [row[:] for row in mat]
    for a, b, s in shears:
        for r in range(n):          # A <- A (I + s E_ab)
            mat[r][b] += s * mat[r][a]
        for c in range(n):          # A^-1 <- (I - s E_ab) A^-1
            inv[a][c] -= s * inv[b][c]
    brackets = {}
    for j in range(n):
        for k in range(j + 1, n):
            for (a, b, c), val in model.f.items():
                weight = val * mat[b][j] * mat[c][k]
                if weight:
                    for i in range(n):
                        brackets[(i, j, k)] = brackets.get((i, j, k), 0) + inv[i][a] * weight
    return LieModel.build(n, {key: val for key, val in brackets.items() if val})
