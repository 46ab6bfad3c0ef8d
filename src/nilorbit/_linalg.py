"""Exact linear algebra over a prime field F_p.

Matrices come in and go out as dense int64 numpy arrays, but the elimination
itself runs on Python-int rows: the input is reduced mod p once and turned
into lists, every pivot step is a list comprehension over the rows whose
entry in the pivot column is nonzero, and the result becomes an int64 array
once at the end.  Python ints cannot wrap, so ``rref``, ``rank`` and
``nullspace`` are exact for any prime p below 2^63; their outputs are
reduced residues.

Row spaces are the working representation of subspaces: a subspace is a
matrix whose rows span it.
"""
from __future__ import annotations

import numpy as np


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p. Returns (nonzero rows, pivot columns):
    an int64 array of shape (rank, cols) and the pivot column of each row."""
    rows, cols = mat.shape
    m = (mat % p).tolist()
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        for sel in range(r, rows):
            if m[sel][c]:
                break
        else:
            continue
        pivot_row = m[sel]
        m[sel] = m[r]
        if pivot_row[c] != 1:
            inv = pow(pivot_row[c], -1, p)
            pivot_row = [x * inv % p for x in pivot_row]
        m[r] = pivot_row
        m = [
            row if i == r or not row[c]
            else [(x - row[c] * y) % p for x, y in zip(row, pivot_row)]
            for i, row in enumerate(m)
        ]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return np.array(m[:r], dtype=np.int64).reshape(r, cols), pivots


def rank(mat: np.ndarray, p: int) -> int:
    return rref(mat, p)[0].shape[0]


def nullspace(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis (rows) of {x : mat @ x = 0 mod p}; (0, n)-shaped when trivial."""
    n = mat.shape[1]
    if mat.shape[0] == 0:
        return np.eye(n, dtype=np.int64)
    red, pivots = rref(mat, p)
    # Column c of k, for each free column c, is a kernel vector: 1 at c and
    # -red[i, c] at the pivot column of row i.
    k = np.eye(n, dtype=np.int64)
    k[pivots] = -red % p
    free = np.ones(n, dtype=bool)
    free[pivots] = False
    return k.T[free]

