"""Exact dense matrices over the rationals with fraction-free rank.

Rank is computed by Bareiss elimination on an integer rescaling of the rows,
so no floating point (and no intermediate fraction blow-up) is involved.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class ExactMatrix:
    """Immutable rational matrix; rows of equal length."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows, ncols=None):
        rows = [tuple(Fraction(x) for x in row) for row in rows]
        if rows:
            ncols_found = {len(r) for r in rows}
            if len(ncols_found) != 1:
                raise ValueError("ragged matrix")
            ncols = ncols_found.pop()
            if ncols is None:
                raise ValueError("cannot infer column count")
        elif ncols is None:
            ncols = 0
        self.rows = tuple(rows)
        self.nrows = len(rows)
        self.ncols = ncols

    @property
    def is_zero(self) -> bool:
        return all(not x for row in self.rows for x in row)

    def rank(self) -> int:
        return bareiss_rank(self.rows)

    def __eq__(self, other):
        return (isinstance(other, ExactMatrix)
                and self.ncols == other.ncols and self.rows == other.rows)

    def __repr__(self):
        return f"ExactMatrix({[list(map(str, r)) for r in self.rows]})"


def bareiss_rank(rows) -> int:
    """Rank of a rational matrix by fraction-free (Bareiss) elimination."""
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
