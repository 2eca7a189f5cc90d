"""An exact eigenbasis for the weight filter of ``lie.ce_cohomology_dims``.

``lie`` imports this module only when no basis element acts diagonally and
the complex is large.  ``rewrite(model, p)`` takes, in basis order, the first
h whose ad and, at p = 1, whose module action are diagonalizable over Q with
a nonzero eigenvalue, and returns the same algebra (and module) in a basis
of eigenvectors of h that contains h itself, so that h acts diagonally.

All arithmetic is on integers: ad h and the action are scaled by the lcm of
their denominators.  The characteristic polynomial comes from Newton's
identities on the traces of powers, its integer roots from Newton's method
run down from sqrt(tr B^2), a bound on every eigenvalue when all are real,
and each eigenspace from ``linalg.kernel`` on the sparse rows of B - lambda,
the elimination that ranks the complex: one primitive integer vector per
free column, that is per column that is not a pivot lead.  Such a vector u
has an entry s at its free column c, and every other vector of its
eigenspace is 0 there, so a vector x of that eigenspace has coordinate
x_c / s along u.  As ad h is a derivation of the bracket and of the action,
[u_j, u_k] lies in the eigenspace of lambda_j + lambda_k and u_k . w_b in
that of lambda_k + mu_b, so each new structure constant is one such
coordinate and no inverse matrix is formed.  That needs the Jacobi
identity and, at p = 1, the representation property, which the caller's
guard has checked.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from operator import mul

from .lie import LieModel, _rational
from .linalg import kernel


def _trace(a, b):
    """tr(a b) for square matrices as lists of rows."""
    return sum(sum(map(mul, row, col)) for row, col in zip(a, zip(*b)))


def _charpoly(b) -> list:
    """det(x - b) for a square integer matrix, coefficients highest first, by
    Newton's identities on tr b^k = tr(b^(k - k//2) b^(k//2)); every
    division is exact."""
    n = len(b)
    powers = [[[int(i == j) for j in range(n)] for i in range(n)], b]
    columns = list(zip(*b))
    while len(powers) <= (n + 1) // 2:
        powers.append([[sum(map(mul, row, col)) for col in columns] for row in powers[-1]])
    traces = [_trace(powers[k - k // 2], powers[k // 2]) for k in range(1, n + 1)]
    e = [1]
    for k in range(1, n + 1):
        e.append(sum((-1) ** (i - 1) * e[k - i] * traces[i - 1] for i in range(1, k + 1)) // k)
    return [(-1) ** k * c for k, c in enumerate(e)]


def _integer_roots(coeffs: list) -> list:
    """The integer roots of a monic integer polynomial x^n + c1 x^(n-1) +
    c2 x^(n-2) + ..., largest first and each as often as its multiplicity,
    by Newton's method down from top = sqrt(c1^2 - 2 c2) + 1, above every
    root when all are real (c1^2 - 2 c2 is their sum of squares).  Above its
    largest root a real-rooted polynomial is positive, increasing and
    convex, so each step, rounded up, stays above that root; the search
    stops, with the roots found so far, where that fails or after a step
    count that real roots below top never need."""
    c1, c2 = (coeffs + [0, 0])[1:3]
    roots = []
    x = top = isqrt(max(0, c1 * c1 - 2 * c2)) + 1
    for _ in range(len(coeffs) ** 2 * (top.bit_length() + 5)):
        if len(coeffs) == 1:
            break
        value = slope = 0
        for c in coeffs:
            value, slope = value * x + c, slope * x + value
        if value == 0:
            roots.append(x)
            quotient = [coeffs[0]]
            for c in coeffs[1:-1]:
                quotient.append(c + x * quotient[-1])
            coeffs = quotient
        elif value < 0 or slope <= 0:
            break
        else:
            x -= max(1, value // slope)
    return roots


def _eigenbasis(b):
    """[(eigenvalue, free column, sparse vector {column: int})] for a basis
    of eigenvectors of the integer matrix b, or None if b is not
    diagonalizable over Q: its characteristic polynomial has fewer integer
    roots than its degree, or an eigenspace is smaller than its root's
    multiplicity."""
    roots = _integer_roots(_charpoly(b))
    if len(roots) < len(b):
        return None
    basis = []
    for value in sorted(set(roots), reverse=True):
        shifted = [{j: x - value * (i == j) for j, x in enumerate(row)} for i, row in enumerate(b)]
        vectors = kernel(shifted, range(len(b)))
        if len(vectors) < roots.count(value):
            return None
        basis += [(value, col, vec) for col, vec in vectors]
    return basis


def _actions(table: dict, acting_first: bool) -> dict:
    """{c: [(i, d, value)]} for a structure table whose entry (i, j, k) is
    the i-coefficient of basis vector c acting on d, where (c, d) is (j, k)
    if acting_first, else (k, j); values are ints where they can be."""
    out = {}
    for (i, j, k), x in table.items():
        c, d = (j, k) if acting_first else (k, j)
        out.setdefault(c, []).append((i, d, _rational(x)))
    return out


def _transform(actions: dict, acting, acted) -> dict:
    """{(a, b, k): coefficient of acted[a] in acting[k] . acted[b]}."""
    readers = {}
    for a, (value, col, vec) in enumerate(acted):
        readers.setdefault(value, []).append((a, col, vec[col]))
    out = {}
    for k, (lam, _, u) in enumerate(acting):
        mat = [[0] * len(acted) for _ in acted]
        for c, y in u.items():
            for i, d, x in actions.get(c, ()):
                mat[i][d] += x * y
        for b, (mu, _, w) in enumerate(acted):
            for a, col, s in readers.get(lam + mu, ()):
                x = sum(mat[col][d] * y for d, y in w.items())
                if x:
                    out[(a, b, k)] = Fraction(x, s)
    return out


def rewrite(model: LieModel, p: int):
    """``model`` in an eigenbasis of its first basis element whose ad and, at
    p = 1, whose module action are diagonalizable over Q with a nonzero
    eigenvalue (with no module at p = 0); None if there is none."""
    n, m = model.dim, model.module_dim if p else 0
    ad, act = _actions(model.f, True), _actions(model.rho, False) if p else {}
    for h in range(n):
        mats = []
        for actions, size in ((ad, n), (act, m)):
            mat = [[0] * size for _ in range(size)]
            for i, d, x in actions.get(h, ()):
                mat[i][d] = x
            mats.append(mat)
        if sum(_trace(mat, mat) for mat in mats) <= 0:
            continue
        scale = lcm(*(x.denominator for mat in mats for row in mat for x in row))
        ghosts, module = (_eigenbasis([[int(x * scale) for x in row] for row in mat])
                          for mat in mats)
        if ghosts is not None and module is not None:
            f = {(a, k, b): x for (a, b, k), x in _transform(ad, ghosts, ghosts).items()}
            return LieModel(n, m, f, _transform(act, ghosts, module))
    return None
