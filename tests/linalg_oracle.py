"""The three eliminations steinkit used before ``linalg.form``, kept as its
oracle.

``determinant`` (integer Bareiss), ``signature`` (``Fraction`` congruence
diagonalization) and ``solve`` (``Fraction`` Gauss) are unchanged; ``c1^2``
was ``sum(r_i * x_i)`` over ``x = solve(Q, r)``. ``check_agreement`` raises
``AssertionError`` itself instead of using ``assert``, so the check also
runs under ``python -O``:

    PYTHONPATH=src python -O tests/linalg_oracle.py

runs the seeded sweep below and prints how many forms agreed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from steinkit import linalg

# Negative definite E8: chain 0..6 with node 7 attached to node 4.
E8 = (
    (-2, 1, 0, 0, 0, 0, 0, 0),
    (1, -2, 1, 0, 0, 0, 0, 0),
    (0, 1, -2, 1, 0, 0, 0, 0),
    (0, 0, 1, -2, 1, 0, 0, 0),
    (0, 0, 0, 1, -2, 1, 0, 1),
    (0, 0, 0, 0, 1, -2, 1, 0),
    (0, 0, 0, 0, 0, 1, -2, 0),
    (0, 0, 0, 0, 1, 0, 0, -2),
)
HYPERBOLIC = ((0, 1), (1, 0))


def determinant(matrix) -> int:
    """Exact determinant of an integer matrix (Bareiss elimination)."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                value = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                assert value % prev == 0
                m[i][j] = value // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def signature(matrix) -> int:
    """Signature of a symmetric matrix by congruence diagonalization.

    Pivots on a nonzero diagonal entry when one exists; otherwise, if some
    off-diagonal entry among the remaining rows is nonzero, adds that row
    and column into the pivot row to create a nonzero diagonal entry.
    """
    n = len(matrix)
    m = [[Fraction(matrix[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            assert m[i][j] == m[j][i], "matrix not symmetric"
    sig = 0
    for k in range(n):
        if m[k][k] == 0:
            pivot = next(
                (i for i in range(k + 1, n) if m[i][i] != 0), None
            )
            if pivot is not None:
                _swap(m, k, pivot)
            else:
                off = next(
                    (j for j in range(k + 1, n) if m[k][j] != 0), None
                )
                if off is None:
                    continue  # zero row: no contribution
                # remaining diagonal is zero, so this makes m[k][k] = 2*m[k][off]
                _add_into(m, k, off)
        assert m[k][k] != 0
        sig += 1 if m[k][k] > 0 else -1
        for i in range(k + 1, n):
            if m[i][k] == 0:
                continue
            factor = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= factor * m[k][j]
            for j in range(k, n):
                m[j][i] -= factor * m[j][k]
    return sig


def _swap(m, a, b):
    m[a], m[b] = m[b], m[a]
    for row in m:
        row[a], row[b] = row[b], row[a]


def _add_into(m, a, b):
    for j in range(len(m)):
        m[a][j] += m[b][j]
    for row in m:
        row[a] += row[b]


def solve(matrix, rhs) -> list[Fraction] | None:
    """Exact solution of matrix @ x = rhs, or None if singular."""
    n = len(matrix)
    m = [[Fraction(matrix[i][j]) for j in range(n)] + [Fraction(rhs[i])] for i in range(n)]
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return None
        m[k], m[pivot] = m[pivot], m[k]
        for i in range(k + 1, n):
            factor = m[i][k] / m[k][k]
            if factor:
                for j in range(k, n + 1):
                    m[i][j] -= factor * m[k][j]
    x = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        acc = m[k][n] - sum(m[k][j] * x[j] for j in range(k + 1, n))
        x[k] = acc / m[k][k]
    return x


def old_form(matrix, vector) -> tuple[int, int, Fraction | None]:
    """What ``handlebody.analyze`` computed before, in ``form``'s shape."""
    x = solve(matrix, vector)
    vqv = None if x is None else sum(Fraction(v) * xi for v, xi in zip(vector, x))
    return determinant(matrix), signature(matrix), vqv


def check_agreement(matrix, vector) -> None:
    got = linalg.form(matrix, vector)
    want = old_form(matrix, vector)
    if got != want or not (got[2] is None or isinstance(got[2], Fraction)):
        raise AssertionError(f"form({matrix}, {vector}) = {got}, oracle {want}")


def random_form(rng: random.Random, n: int, shape: str):
    """A symmetric n x n integer matrix and an integer n-vector.

    ``dense``: entries in [-5, 5]; ``sparse``: most entries zero;
    ``zero-diagonal``: sparse with a zero diagonal, so elimination must add
    an off-diagonal row into the pivot; ``singular``: one index duplicates
    another, so det = 0 and the vector term is undefined.
    """
    density = 1.0 if shape == "dense" else 0.25
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            if rng.random() < density:
                m[i][j] = m[j][i] = rng.randint(-5, 5)
        if shape == "zero-diagonal":
            m[i][i] = 0
    if shape == "singular" and n >= 2:
        a, b = rng.sample(range(n), 2)
        for i in range(n):
            m[b][i] = m[a][i]
        for i in range(n):
            m[i][b] = m[i][a]
    return m, [rng.randint(-5, 5) for _ in range(n)]


SHAPES = ("dense", "sparse", "zero-diagonal", "singular")


def sweep():
    """20,000 seeded forms with n = 0..8 in the four shapes, then a few
    with n = 12, 20 and 40, E8 and the hyperbolic plane."""
    rng = random.Random(19680701)
    for count in range(20_000):
        yield random_form(rng, rng.randint(0, 8), SHAPES[count % 4])
    for n, count in ((12, 8), (20, 4), (40, 2)):
        for c in range(count):
            yield random_form(rng, n, SHAPES[c % 4])
    for matrix in (E8, HYPERBOLIC):
        n = len(matrix)
        yield matrix, [0] * n
        yield matrix, [rng.randint(-5, 5) for _ in range(n)]


def main() -> None:
    checked = 0
    for matrix, vector in sweep():
        check_agreement(matrix, vector)
        checked += 1
    print(f"optimized={not __debug__} agreed={checked}")


if __name__ == "__main__":
    main()
