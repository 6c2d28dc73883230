"""Exact invariants of a symmetric integer form, from one elimination.

``form(Q, v)`` runs one fraction-free symmetric Bareiss elimination of the
bordered matrix ``[[Q, v], [v^T, 0]]``. Pivots come only from Q's indices:

* a zero pivot is replaced by swapping in a nonzero diagonal entry;
* if the remaining diagonal is all zero, an off-diagonal row and column
  are added into the pivot's, which makes it twice that entry;
* a row that is zero in what is left of Q is moved past the end and never
  pivoted on; the form is then degenerate and det = 0.

Each of these is a unimodular congruence, so det Q, the inertia of Q and
``v^T Q^-1 v`` are preserved. After k pivots every entry left is a
(k+1)-minor of the transformed bordered matrix, and the division by the
previous pivot is exact (checked). The k-th pivot is the k-th leading
minor d_k, so the k-th diagonal entry of Q's LDL^T has the sign of
d_k * d_(k-1): that gives the signature. When all n pivots are taken, the
last is det Q, and the border corner is the determinant of the whole
bordered matrix, which by the Schur complement is ``-det Q * v^T Q^-1 v``.
All arithmetic is on Python ints; the one division left is a ``Fraction``.
Linking matrices of handle diagrams are small, so exactness matters more
than speed.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvariantViolation, brief


def form(matrix, vector) -> tuple[int, int, Fraction | None]:
    """``(det Q, signature Q, v^T Q^-1 v)`` of a symmetric integer matrix
    Q and an integer vector v; the last is None when det Q = 0."""
    n = len(matrix)
    if len(vector) != n or any(len(row) != n for row in matrix) or any(
        matrix[i][j] != matrix[j][i] for i in range(n) for j in range(i)
    ):
        raise InvariantViolation(
            "form needs a symmetric matrix and a vector of matching size"
        )
    m = [list(row) + [v] for row, v in zip(matrix, vector)]
    m.append(list(vector) + [0])
    live = n  # Q's indices live..n-1 are zero rows moved past the end
    prev = 1
    sig = 0
    k = 0
    while k < live:
        if m[k][k] == 0:
            p = next((i for i in range(k + 1, live) if m[i][i]), None)
            if p is None:
                p = next((j for j in range(k + 1, live) if m[k][j]), None)
                if p is None:
                    live -= 1
                    _swap(m, k, live)
                    continue
                for j in range(k, n + 1):
                    m[k][j] += m[p][j]
                for row in m[k:]:
                    row[k] += row[p]
            else:
                _swap(m, k, p)
        pivot = m[k][k]
        sig += 1 if (pivot > 0) == (prev > 0) else -1
        pivot_row = m[k]
        for i in range(k + 1, n + 1):
            row = m[i]
            factor = row[k]
            for j in range(i, n + 1):
                value = row[j] * pivot - factor * pivot_row[j]
                entry = value // prev
                if entry * prev != value:
                    raise InvariantViolation(
                        f"Bareiss division {brief(value)} / {brief(prev)} is not exact"
                    )
                row[j] = m[j][i] = entry
        prev = pivot
        k += 1
    if live < n:
        return 0, sig, None
    return prev, sig, Fraction(-m[n][n], prev)


def _swap(m, a, b):
    m[a], m[b] = m[b], m[a]
    for row in m:
        row[a], row[b] = row[b], row[a]
