"""Exact linear algebra over a prime field F_p.

Matrices come in and go out as dense int64 numpy arrays, but the elimination
itself runs on Python-int rows: the input is reduced mod p once and turned
into lists, every pivot step is a list comprehension over the rows whose
entry in the pivot column is nonzero, and the result becomes an int64 array
once at the end.  ``nullspace`` builds its rows from the reduced rows as
lists too.  Python ints cannot wrap, so ``rref``, ``nullspace`` and
``det`` are exact for any prime p below 2^63; their outputs are
reduced residues.

Row spaces are the working representation of subspaces: a subspace is a
matrix whose rows span it.  The reduced row echelon form of a row space is
unique, so the outputs of ``rref`` and ``nullspace`` are canonical: they
depend only on the row space of the input (for ``nullspace``, on its
kernel), never on which rows span it, their order, or repeated and zero
rows.  The oracle relies on this to build a subspace from any spanning set
and still get bit-identical bases.

``np`` is numpy, bound here for the whole package (``ff_oracle`` takes it
from this module): the module already in ``sys.modules`` if numpy was
imported first, and otherwise one bound through ``importlib.util.LazyLoader``
(the lazy-import recipe of the importlib documentation).  numpy is found at
import time, so a missing numpy still fails ``import nilorbit`` with
ModuleNotFoundError, but it loads only when an attribute is first read,
at the oracle's first array.  Partitions, blocks, Richardson orbits,
descriptors and the duality never load it.
"""
from __future__ import annotations

import importlib.util
import sys

if "numpy" in sys.modules:
    np = sys.modules["numpy"]
else:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = importlib.util.module_from_spec(_spec)
    sys.modules["numpy"] = np
    _spec.loader.exec_module(np)


def _reduce(mat: np.ndarray, p: int) -> tuple[list[list[int]], list[int], int]:
    """The one elimination behind ``rref``, ``nullspace`` and ``det``: the
    nonzero rows of the reduced row echelon form mod p, as lists of Python
    ints, the pivot column of each, and the product of the pivots before
    they are scaled to 1, negated once per row swap, as a residue."""
    rows, cols = mat.shape
    m = (mat % p).tolist()
    pivots: list[int] = []
    r, product = 0, 1
    for c in range(cols):
        for sel in range(r, rows):
            if m[sel][c]:
                break
        else:
            continue
        pivot_row = m[sel]
        m[sel] = m[r]
        product = (product if sel == r else -product) * pivot_row[c] % p
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
    return m[:r], pivots, product


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p. Returns (nonzero rows, pivot columns):
    an int64 array of shape (rank, cols) and the pivot column of each row."""
    red, pivots, _ = _reduce(mat, p)
    return np.array(red, dtype=np.int64).reshape(len(red), mat.shape[1]), pivots


def nullspace(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis (rows) of {x : mat @ x = 0 mod p}; (0, n)-shaped when trivial.
    One row per free column c of the reduced form, in order: 1 at c and
    -red[i][c] at the pivot column of each reduced row i."""
    n = mat.shape[1]
    red, pivots, _ = _reduce(mat, p)
    pivot_set = set(pivots)
    zero = [0] * n
    basis = []
    for c in range(n):
        if c in pivot_set:
            continue
        row = zero.copy()
        row[c] = 1
        for pc, reduced in zip(pivots, red):
            row[pc] = -reduced[c] % p
        basis.append(row)
    return np.array(basis, dtype=np.int64).reshape(len(basis), n)


def det(mat: np.ndarray, p: int) -> int:
    """Determinant mod p of a square matrix, as a residue in [0, p): the
    product of the pivots that ``_reduce`` finds, and 0 when a column has
    no pivot.  Its row operations other than swaps and scalings keep the
    det, and they end at the identity when every column has a pivot."""
    _, pivots, product = _reduce(mat, p)
    return product if len(pivots) == mat.shape[1] else 0
