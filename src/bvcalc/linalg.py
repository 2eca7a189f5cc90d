"""Exact rational matrices, their ranks and kernels by one sparse integer
elimination.

Every exact linear-algebra question the package asks goes through one
echelon form, ``_echelon``: each vector is a sparse map {column key:
rational}, scaled to a primitive integer row, and the rows are reduced into
pivot rows keyed by their lead column.  ``pivot_leads`` reads the rank off
it as the number of leads, and ``kernel`` reads a kernel basis off it by
back-substitution, one vector per column that is not a lead.  Every
intermediate row, and every kernel vector, is divided by the gcd of its
entries, so no floating point and no fraction blow-up is involved.

``ExactMatrix`` is the dense matrix of ``lie.ce_matrices`` and serves
nothing else in the package; the residuals of ``lie.rep_check`` are tuples
of row tuples.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter


class ExactMatrix:
    """Immutable rational matrix; rows of equal length."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows, ncols=None):
        rows = [tuple(Fraction(x) for x in row) for row in rows]
        if rows:
            widths = {len(r) for r in rows}
            if len(widths) != 1:
                raise ValueError("ragged matrix")
            width = widths.pop()
            if ncols is not None and ncols != width:
                raise ValueError(f"rows have {width} columns, not {ncols}")
            ncols = width
        elif ncols is None:
            ncols = 0
        self.rows = tuple(rows)
        self.nrows = len(rows)
        self.ncols = ncols

    @property
    def is_zero(self) -> bool:
        return all(not x for row in self.rows for x in row)

    def rank(self) -> int:
        return len(pivot_leads(dict(enumerate(row)) for row in self.rows))

    def __eq__(self, other):
        return (isinstance(other, ExactMatrix)
                and self.ncols == other.ncols and self.rows == other.rows)

    def __repr__(self):
        return f"ExactMatrix({[list(map(str, r)) for r in self.rows]})"


def _primitive(row: dict) -> dict:
    """The integer row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return row if g == 1 else {k: v // g for k, v in row.items()}


def _echelon(vectors, columns=()):
    """(keys, column, pivots) for sparse vectors {column key: int or
    Fraction} on the column keys they hold and those of ``columns``:
    ``column`` numbers the keys from the rarest to the most common, keys
    lists them in that order, and pivots maps each lead column number to its
    primitive integer pivot row {column number: int}.

    Each row's lead is its rarest column, which keeps fill-in low.  Rows are
    reduced sparsest first; a row meets only the pivot rows whose lead it
    contains, and each reduction step removes the row's lead without adding
    a rarer column.  So every pivot row is zero on the columns rarer than
    its lead.
    """
    vectors = [{k: x for k, x in vec.items() if x} for vec in vectors]
    counts = Counter(k for vec in vectors for k in vec)
    counts.update(dict.fromkeys(columns, 0))
    keys = [k for k, _ in sorted(counts.items(), key=itemgetter(1))]
    column = {k: n for n, k in enumerate(keys)}
    rows = []
    for vec in vectors:
        if vec:
            scale = lcm(*(x.denominator for x in vec.values()))
            rows.append(_primitive({column[k]: x.numerator * (scale // x.denominator)
                                    for k, x in vec.items()}))
    rows.sort(key=len)
    pivots = {}
    for row in rows:
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            a, b = pivot[lead], row[lead]
            g = gcd(a, b)
            a, b = a // g, b // g
            if a != 1:
                row = {k: a * v for k, v in row.items()}
            for k, v in pivot.items():
                x = row.get(k, 0) - b * v
                if x:
                    row[k] = x
                else:
                    del row[k]
            if row:
                row = _primitive(row)
    return keys, column, pivots


def pivot_leads(vectors) -> list:
    """Column keys of the pivot leads of an echelon form of sparse vectors
    {column key: int or Fraction}, one per pivot, so as many as the rank.

    Column keys need only be hashable.  The pivot rows together with the
    unit vectors of the columns that are not leads form a triangular basis:
    those unit vectors span a complement of the span of the vectors.
    """
    keys, _, pivots = _echelon(vectors)
    return [keys[lead] for lead in pivots]


def kernel(vectors, columns) -> list:
    """[(column, vector)], a basis of the vectors on the column keys
    ``columns``, which hold every key of ``vectors``, that are orthogonal
    to every sparse vector {column key: int or Fraction} of ``vectors``:
    one primitive integer vector {column key: int} per column that is not a
    pivot lead, in the order of ``columns``.  Each is nonzero at its own
    column and zero at the other such columns.

    Each vector is read by back-substitution from the most common lead
    down: a pivot row is zero on the columns rarer than its lead, so every
    other column it holds is already set when its lead entry is solved for.
    Each step scales the partial vector by the least factor that keeps it
    integer.
    """
    keys, column, pivots = _echelon(vectors, columns)
    leads = sorted(pivots.items(), reverse=True)
    out = []
    for col in columns:
        if column[col] in pivots:
            continue
        vec = {column[col]: 1}
        for lead, row in leads:
            s = sum(x * vec[k] for k, x in row.items() if k in vec)
            if s:
                g = gcd(s, row[lead])
                vec = {k: row[lead] // g * x for k, x in vec.items()}
                vec[lead] = -s // g
        out.append((col, {keys[k]: x for k, x in _primitive(vec).items()}))
    return out
