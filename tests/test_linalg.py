"""Exact F_p linear algebra (``nilorbit._linalg``).

``rref``, ``rank``, ``nullspace`` and the test-side ``contains`` in
conftest.py are compared with a reference: a per-row numpy elimination kept here as a copy of the package's
former kernel, plus the nullspace and containment built on it.  Reduced row
echelon form is unique, so rows, pivots, shapes and dtype must agree
exactly.  Random cases are drawn by hypothesis, derandomized; the structured
ones (empty, zero, sparse, Jordan powers, signed permutations) are listed.
Above 2^32 the reference's int64 products of two residues wrap, so there the
package is checked by the nullspace invariants alone, in Python ints.
"""
import itertools

import numpy as np
import pytest
from conftest import BIG_PRIME, contains
from hypothesis import given, settings
from hypothesis import strategies as st

from nilorbit import Family, parse_partition, realize
from nilorbit._linalg import det, nullspace, rank, rref
from nilorbit.ff_oracle import _is_odd_prime

PRIMES = (3, 5, 7, 101, 1_000_003)
MAX_SIDE = 22
SETTINGS = settings(derandomize=True, deadline=None, max_examples=300, database=None)


# --- reference ----------------------------------------------------------------


def reference_rref(mat, p):
    """The former per-row numpy kernel, kept as the reference."""
    m = mat.copy() % p
    rows, cols = m.shape
    pivots = []
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


def reference_nullspace(mat, p):
    n = mat.shape[1]
    if mat.shape[0] == 0:
        return np.eye(n, dtype=np.int64)
    red, pivots = reference_rref(mat, p)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = np.zeros(n, dtype=np.int64)
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-red[i, fc]) % p
        basis.append(v)
    return np.array(basis, dtype=np.int64).reshape(len(basis), n)


def reference_contains(span, vectors, p):
    if vectors.shape[0] == 0:
        return True
    return bool(np.all((vectors @ reference_nullspace(span, p).T) % p == 0))


def exact(mat):
    """An object array of Python ints, for products that cannot wrap."""
    return np.array(mat.tolist(), dtype=object).reshape(mat.shape)


# --- checks -------------------------------------------------------------------


def assert_matches_reference(mat, p):
    red, pivots = rref(mat, p)
    ref_red, ref_pivots = reference_rref(mat, p)
    assert pivots == ref_pivots
    assert red.dtype == np.int64 and red.shape == ref_red.shape
    assert np.array_equal(red, ref_red)
    assert rank(mat, p) == len(ref_pivots)
    basis = nullspace(mat, p)
    ref_basis = reference_nullspace(mat, p)
    assert basis.dtype == np.int64 and basis.shape == ref_basis.shape
    assert np.array_equal(basis, ref_basis)
    assert_nullspace_invariants(mat, p)


def assert_nullspace_invariants(mat, p):
    """mat @ N^T = 0, rank + nullity = n, and N is the identity on the free
    columns; rref's rows are reduced, with unit pivot columns."""
    n = mat.shape[1]
    red, pivots = rref(mat, p)
    basis = nullspace(mat, p)
    assert red.dtype == np.int64 and basis.dtype == np.int64
    assert red.shape == (len(pivots), n)
    assert basis.shape == (n - len(pivots), n)
    assert ((red >= 0) & (red < p)).all() and ((basis >= 0) & (basis < p)).all()
    assert list(pivots) == sorted(set(pivots))
    assert np.array_equal(red[:, pivots], np.eye(len(pivots), dtype=np.int64))
    for i, pc in enumerate(pivots):
        assert not red[i, :pc].any()
    assert not np.any(exact(mat) @ exact(basis).T % p)
    assert not np.any(exact(red) @ exact(basis).T % p)
    free = [c for c in range(n) if c not in pivots]
    assert np.array_equal(basis[:, free], np.eye(len(free), dtype=np.int64))


@st.composite
def matrices(draw, primes=PRIMES):
    """A matrix up to MAX_SIDE x MAX_SIDE with signed entries, often sparse
    or of low rank, and a prime."""
    p = draw(st.sampled_from(primes))
    rows = draw(st.integers(0, MAX_SIDE))
    cols = draw(st.integers(0, MAX_SIDE))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    mat = rng.integers(-2 * p, 2 * p, size=(rows, cols), dtype=np.int64)
    density = draw(st.sampled_from((1.0, 0.3, 0.05)))
    mat[rng.random((rows, cols)) >= density] = 0
    low = draw(st.integers(0, MAX_SIDE))
    if low < min(rows, cols):  # rank at most ``low``: a product of thin factors
        left = rng.integers(0, p, size=(rows, low), dtype=np.int64)
        right = rng.integers(0, p, size=(low, cols), dtype=np.int64)
        mat = exact(left) @ exact(right) % p
        mat = np.array(mat.tolist(), dtype=np.int64).reshape(rows, cols)
    return mat, p


def jordan(parts):
    n = sum(parts)
    e = np.zeros((n, n), dtype=np.int64)
    start = 0
    for d in parts:
        for i in range(start, start + d - 1):
            e[i, i + 1] = 1
        start += d
    return e


def jordan_powers():
    for parts in ((1,), (3, 1), (4, 4, 2), (5, 3, 3, 1), (7, 5, 5, 3, 1, 1), (22,)):
        e = jordan(parts)
        power = np.eye(e.shape[0], dtype=np.int64)
        for k in range(max(parts) + 1):
            yield f"J{parts}^{k}", power
            power = power @ e


def signed_permutations():
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 13, 22):
        for k in range(3):
            mat = np.zeros((n, n), dtype=np.int64)
            mat[np.arange(n), rng.permutation(n)] = rng.choice((-1, 1), size=n)
            yield f"signed-perm{n}-{k}", mat


def structured():
    for n in (0, 1, 5, 22):
        yield f"empty(0,{n})", np.zeros((0, n), dtype=np.int64)
        if n:
            yield f"empty({n},0)", np.zeros((n, 0), dtype=np.int64)
    for shape in ((1, 1), (3, 7), (7, 3), (22, 22)):
        yield f"zero{shape}", np.zeros(shape, dtype=np.int64)
    rng = np.random.default_rng(11)
    for shape in ((4, 9), (9, 4), (22, 22), (21, 21)):
        sparse = np.zeros(shape, dtype=np.int64)
        idx = rng.choice(shape[0] * shape[1], size=shape[0], replace=False)
        sparse.flat[idx] = rng.integers(-9, 10, size=shape[0])
        yield f"sparse{shape}", sparse
    yield from jordan_powers()
    yield from signed_permutations()
    for text, fam in (("3,3,1", Family.B), ("4,4,2,2", Family.C), ("5,3,1,1", Family.D)):
        real = realize(parse_partition(text), fam, 5)
        yield f"gram-{fam.value}{text}", real.gram
        yield f"e-{fam.value}{text}", real.e


STRUCTURED = list(structured())


# --- tests --------------------------------------------------------------------


def test_big_prime_is_above_the_int64_product_range():
    assert BIG_PRIME > 2**32 and _is_odd_prime(BIG_PRIME)
    assert (BIG_PRIME - 1) ** 2 >= 2**63


@pytest.mark.parametrize("name,mat", STRUCTURED, ids=[name for name, _ in STRUCTURED])
def test_structured(name, mat):
    for p in PRIMES:
        assert_matches_reference(mat, p)
    assert_nullspace_invariants(mat, BIG_PRIME)


@SETTINGS
@given(matrices())
def test_random_matches_reference(case):
    assert_matches_reference(*case)


@SETTINGS
@given(matrices(primes=(BIG_PRIME,)))
def test_big_prime_invariants(case):
    assert_nullspace_invariants(*case)


def test_big_prime_elimination_is_exact():
    """Residues near 2^32 whose int64 products would wrap: the reduced form
    of [[a, b], [c, d]] with ad - bc = 0 mod p has rank 1."""
    p = BIG_PRIME
    a, b, c = p - 1, p - 2, p - 3
    d = b * c * pow(a, -1, p) % p
    red, pivots = rref(np.array([[a, b], [c, d]], dtype=np.int64), p)
    assert pivots == [0]
    assert red.tolist() == [[1, b * pow(a, -1, p) % p]]


@SETTINGS
@given(matrices(), st.integers(0, 2**32 - 1), st.booleans())
def test_contains_matches_reference(case, seed, inside):
    span, p = case
    rng = np.random.default_rng(seed)
    count = int(rng.integers(0, 4))
    if inside:  # combinations of the rows of span
        coeff = rng.integers(0, p, size=(count, span.shape[0]), dtype=np.int64)
        vectors = exact(coeff) @ exact(span % p) % p
        vectors = np.array(vectors.tolist(), dtype=np.int64).reshape(count, span.shape[1])
    else:
        vectors = rng.integers(0, p, size=(count, span.shape[1]), dtype=np.int64)
    got = contains(span, vectors, p)
    assert got is reference_contains(span, vectors, p)
    if inside:
        assert got


def test_contains_structured():
    for (_, mat), p in itertools.product(STRUCTURED, (3, 7)):
        if mat.shape[0] == 0 or mat.shape[1] == 0:
            continue
        assert contains(mat, mat[:1], p)
        unit = np.zeros((1, mat.shape[1]), dtype=np.int64)
        for c in range(mat.shape[1]):
            unit[:] = 0
            unit[0, c] = 1
            assert contains(mat, unit, p) is reference_contains(mat, unit, p)


# --- the canonical-basis contract and the determinant --------------------------


def as_int64(mat):
    return np.array(mat.tolist(), dtype=np.int64).reshape(mat.shape)


def invertible(size, p, rng):
    """A random invertible matrix mod p, as an object array: a unit lower
    triangular matrix times a unit upper triangular one."""
    unit = np.eye(size, dtype=np.int64)
    lower = np.tril(rng.integers(0, p, size=(size, size), dtype=np.int64), -1) + unit
    upper = np.triu(rng.integers(0, p, size=(size, size), dtype=np.int64), 1) + unit
    return exact(lower) @ exact(upper) % p


@pytest.mark.parametrize("p", PRIMES + (BIG_PRIME,))
def test_outputs_depend_only_on_the_row_space(p):
    """nullspace(A M) = nullspace(M) and rref(A M) = rref(M) for invertible
    A, and so for any spanning set of M's row space, with combinations and
    zero rows added: the oracle builds a window from a spanning set of an
    annihilator (ff_oracle._child_windows) and relies on this."""
    rng = np.random.default_rng(p % 10_007)
    for _ in range(60):
        rows, cols = int(rng.integers(0, 9)), int(rng.integers(1, 13))
        M = rng.integers(0, p, size=(rows, cols), dtype=np.int64)
        low = int(rng.integers(0, rows + 1))
        if low < rows:  # rank at most low
            left = rng.integers(0, p, size=(rows, low), dtype=np.int64)
            M = as_int64(exact(left) @ exact(M[:low]) % p)
        AM = as_int64(invertible(rows, p, rng) @ exact(M) % p)
        combos = as_int64(exact(rng.integers(0, p, size=(2, rows), dtype=np.int64)) @ exact(M) % p)
        spanning = np.vstack([combos[:1], AM, np.zeros((1, cols), dtype=np.int64), combos[1:]])
        red, pivots = rref(M, p)
        for other in (AM, spanning):
            assert np.array_equal(nullspace(other, p), nullspace(M, p))
            other_red, other_pivots = rref(other, p)
            assert other_pivots == pivots and np.array_equal(other_red, red)


def leibniz(mat, p):
    """det mod p as the signed sum over permutations, in Python ints."""
    rows = mat.tolist()
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total % p


@pytest.mark.parametrize("p", PRIMES + (BIG_PRIME,))
def test_det_matches_leibniz(p):
    rng = np.random.default_rng(p % 10_007 + 1)
    for size in range(6):
        for trial in range(8):
            mat = rng.integers(-2 * p, 2 * p, size=(size, size), dtype=np.int64)
            mat[rng.random((size, size)) < 0.3] = 0
            if size > 1 and trial % 3 == 0:  # singular: a row repeated
                mat[-1] = mat[0]
            got = det(mat, p)
            assert got == leibniz(mat, p) and 0 <= got < p
            assert (got == 0) == (rank(mat, p) < size)
