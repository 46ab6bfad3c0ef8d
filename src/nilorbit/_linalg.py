"""Exact linear algebra over a prime field F_p on int64 numpy matrices.

All matrices are dense, entries reduced mod p, inverses computed with Fermat's
little theorem. Row spaces are the working representation of subspaces: a
subspace is a matrix whose rows span it.
"""
from __future__ import annotations

import numpy as np


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p. Returns (nonzero rows, pivot columns)."""
    m = mat.copy() % p
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        sel = next((i for i in range(r, rows) if m[i, c] % p), None)
        if sel is None:
            continue
        m[[r, sel]] = m[[sel, r]]
        m[r] = (m[r] * pow(int(m[r, c]), p - 2, p)) % p
        for i in range(rows):
            if i != r and m[i, c]:
                m[i] = (m[i] - m[i, c] * m[r]) % p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m[:r], pivots


def rank(mat: np.ndarray, p: int) -> int:
    return rref(mat, p)[0].shape[0]


def nullspace(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis (rows) of {x : mat @ x = 0 mod p}; (0, n)-shaped when trivial."""
    n = mat.shape[1]
    if mat.shape[0] == 0:
        return np.eye(n, dtype=np.int64)
    red, pivots = rref(mat, p)
    basis = []
    free = [c for c in range(n) if c not in pivots]
    for fc in free:
        v = np.zeros(n, dtype=np.int64)
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-red[i, fc]) % p
        basis.append(v)
    if not basis:
        return np.zeros((0, n), dtype=np.int64)
    return np.array(basis, dtype=np.int64)


def contains(span: np.ndarray, vectors: np.ndarray, p: int) -> bool:
    """True iff every row of ``vectors`` lies in the row space of ``span``."""
    if vectors.shape[0] == 0:
        return True
    return bool(np.all((vectors @ nullspace(span, p).T) % p == 0))
