"""Independent verification over prime fields: build the nilpotent element
and its invariant bilinear form on an explicit Jordan basis, then count
isotropic flags satisfying the nilradical conditions.  Within budget the
count must equal the descriptor E-polynomial at the field size.

The Jordan basis is x(i,j) for part j of size d_j, 1 <= i <= d_j, with
e x(i,j) = x(i-1,j).  The form pairs x(i,j) against x(d_j+1-i, beta(j)),
where beta pairs equal parts of the family's paired parity and fixes parts
of the self-paired parity; entries along a block alternate in sign, which
is exactly what e-invariance forces.

The unit in front of each self-paired block is chosen so the form is split:
units inside one value group alternate (hyperbolic pairs), and the leftover
unit of each odd-multiplicity group walks down the chain of such groups
picking up a factor (-1)^((v_prev - v_next)/2 + 1) per hop, starting at +1
for the largest value.
"""
from __future__ import annotations

import itertools
import os
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from ._linalg import det, nullspace, rank, rref
from .errors import InvariantError
from .levi import LeviType
from .partitions import Family, Partition, is_valid

DEFAULT_BUDGET = 1_000_000
_BUDGET_ENV = "NILORBIT_ORACLE_BUDGET"
# Candidate rows generated and tested per numpy product; keeps memory flat.
_BATCH = 1024
# Last rows decided per leaf-test product, which builds a (rows, m, m) array.
_LEAF_SLICE = 64
_INT64_LIMIT = 2**63


def resolve_budget(budget: int | None = None, default: int = DEFAULT_BUDGET) -> int:
    """Explicit argument, else the NILORBIT_ORACLE_BUDGET variable, else
    ``default``.  A negative or non-integer budget is a ValueError."""
    if budget is None:
        env = os.environ.get(_BUDGET_ENV)
        if not env:
            return default
        try:
            budget = int(env)
        except ValueError:
            raise ValueError(f"{_BUDGET_ENV} must be an integer, got {env!r}") from None
        if budget < 0:
            raise ValueError(f"{_BUDGET_ENV} must be non-negative, got {budget}")
    if budget < 0:
        raise ValueError(f"oracle budget must be non-negative, got {budget}")
    return budget


class BudgetExceeded(Exception):
    """Raised internally when the node cap is hit; converted to a skip."""


def check_modulus(modulus: int, n: int) -> None:
    """Reject a modulus that is not an odd prime, or so large that one
    reduced product of n-by-n matrices could overflow int64
    (n * (modulus - 1)**2 >= 2**63)."""
    if n * (modulus - 1) ** 2 >= _INT64_LIMIT:
        raise ValueError(
            f"modulus {modulus} is too large for dimension {n}: "
            f"n*(p-1)^2 must stay below 2^63"
        )
    if not _is_odd_prime(modulus):
        raise ValueError(f"modulus must be an odd prime, got {modulus}")


# Miller-Rabin with the first thirteen primes as bases is exact below this
# bound (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT = 3_317_044_064_679_887_385_961_981


def _is_odd_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; a ValueError at or above the bound where
    its bases stop being a proof."""
    if n >= _MR_EXACT:
        raise ValueError(f"cannot certify that {n} is prime: moduli must stay below {_MR_EXACT}")
    if n < 3 or n % 2 == 0:
        return False
    if n in _MR_BASES:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(eq=False)
class JordanRealization:
    """A nilpotent matrix in Jordan form together with a split invariant
    form over F_p."""

    family: Family
    partition: Partition
    modulus: int
    e: np.ndarray
    gram: np.ndarray

    @property
    def dim(self) -> int:
        return self.e.shape[0]


def _self_paired(v: int, family: Family) -> bool:
    return (v % 2 == 0) == (family is Family.C)


def _block_units(p: Partition, family: Family) -> list[int]:
    """Unit in front of each self-paired Jordan block (0 for paired parts,
    which carry the fixed cross-block pairing instead)."""
    units = [0] * len(p.parts)
    leftovers: list[tuple[int, int]] = []
    for v in sorted(set(p.parts), reverse=True):
        if not _self_paired(v, family):
            continue
        js = [j for j, x in enumerate(p.parts) if x == v]
        for t, j in enumerate(js):
            units[j] = 1 if t % 2 == 0 else -1
        if len(js) % 2 == 1:
            units[js[-1]] = 1
            leftovers.append((v, js[-1]))
    delta = 1
    for t in range(1, len(leftovers)):
        prev_v, _ = leftovers[t - 1]
        v, j = leftovers[t]
        delta *= (-1) ** ((prev_v - v) // 2 + 1)
        units[j] = delta
    return units


def realize(p: Partition, family: Family, modulus: int) -> JordanRealization:
    """Nilpotent element of Jordan type ``p`` with a split invariant form
    over F_modulus.  Only odd prime moduli are accepted."""
    if not is_valid(p, family):
        raise ValueError(f"{p} is not valid for family {family.value}")
    check_modulus(modulus, p.n)
    parts = p.parts
    n = p.n
    basis = tuple((i, j) for j, d in enumerate(parts) for i in range(1, d + 1))
    index = {bj: a for a, bj in enumerate(basis)}

    e = np.zeros((n, n), dtype=np.int64)
    for j, d in enumerate(parts):
        for i in range(2, d + 1):
            e[index[(i - 1, j)], index[(i, j)]] = 1

    beta = list(range(len(parts)))
    for v in sorted(set(parts), reverse=True):
        if _self_paired(v, family):
            continue
        js = [j for j, x in enumerate(parts) if x == v]
        if len(js) % 2:
            raise InvariantError(f"paired-parity value {v} with odd multiplicity in {p}")
        for a, b in zip(js[0::2], js[1::2]):
            beta[a], beta[b] = b, a

    eps = family.epsilon
    units = _block_units(p, family)
    gram = np.zeros((n, n), dtype=np.int64)
    for j, d in enumerate(parts):
        if beta[j] == j:
            for i in range(1, d + 1):
                gram[index[(i, j)], index[(d + 1 - i, j)]] = units[j] * (-1) ** (i - 1)
        elif beta[j] > j:
            b = beta[j]
            for i in range(1, d + 1):
                s = (-1) ** (i - 1)
                gram[index[(i, j)], index[(d + 1 - i, b)]] = s
                gram[index[(d + 1 - i, b)], index[(i, j)]] = eps * s
    gram %= modulus

    real = JordanRealization(family, p, modulus, e, gram)
    _validate(real)
    return real


def _validate(real: JordanRealization) -> None:
    p, e, g = real.modulus, real.e, real.gram
    n = real.dim

    def require(ok, what: str) -> None:
        if not ok:
            raise InvariantError(f"{what} ({real.family.value}, {real.partition}, p={p})")

    require(not np.any((g.T - real.family.epsilon * g) % p), "form symmetry broken")
    det_g = det(g, p)
    require(det_g, "form is degenerate")
    # A 0/1 matrix with at most one 1 in each row and column has powers of
    # the same kind, and the rank of each is its number of nonzero entries.
    # It is checked on Python lists: numpy's reductions add to peak RSS.
    rows = e.tolist()
    require(
        all(x in (0, 1) for row in rows for x in row)
        and all(sum(line) <= 1 for line in itertools.chain(rows, zip(*rows))),
        "e is not a 0/1 partial permutation",
    )
    require(not np.any((e.T @ g + g @ e) % p), "form is not e-invariant")
    power = e
    for k in itertools.count(1):
        expected = sum(max(d - k, 0) for d in real.partition.parts)
        require(np.count_nonzero(power) == expected, f"rank of e^{k} is not {expected}")
        if expected == 0:
            break
        power = power @ e
    if real.family is Family.D:
        target = ((-1) ** (n // 2)) % p
        ratio = (det_g * pow(target, p - 2, p)) % p
        require(pow(ratio, (p - 1) // 2, p) == 1, "even orthogonal form is not split")


@dataclass(frozen=True)
class FlagCount:
    """Result of one fiber count: either an exact count or an explicit skip."""

    count: int | None
    modulus: int
    levi: LeviType
    nodes: int
    skipped: str | None = None


def _quotient_slack(p: Partition, levi: LeviType, i: int) -> list[int]:
    """n - rank e^a - S_a = dim ker e^a - S_a for a = 1 .. max(p) - 1,
    where S_a is the sum of the a largest steps of the chain p_{i+1}, ...,
    p_k, q, p_k, ..., p_{i+1} left below the flag space E_i (levi.ps from
    index i on; below E_k the chain is q alone).  Flags continue below E_i
    only when
        rank e^a - 2 dim(E_i cap im e^a) <= N' - S_a,  N' = n - 2 dim E_i
    (see fiber_point_count), that is dim(E_i cap im e^a) >= dim E_i -
    slack_a / 2: row i - 1 of the floor table (_floors).  It reads only the
    parts of p and the steps of levi."""
    parts = p.parts
    steps = sorted(levi.ps[i:] * 2 + (levi.q,) + (0,) * parts[0], reverse=True)
    slack, kernel, j = [], 0, len(parts)
    for a, top in zip(range(1, parts[0]), itertools.accumulate(steps)):
        while parts[j - 1] < a:  # j = the number of parts >= a
            j -= 1
        kernel += j
        slack.append(kernel - top)
    return slack


def _floors(p: Partition, levi: LeviType, t: int) -> list[int]:
    """Row t of fiber_point_count's floor table: m_a = ceil(d - slack_a / 2)
    for a = 1 .. max(p) - 1, with d = dim E_{t+1} = p_1 + ... + p_{t+1} and
    slack from _quotient_slack(p, levi, t + 1), the least dim(E_{t+1} cap
    im e^a) of any counted flag.  m_a = d puts all of E_{t+1} in im e^a
    (_cut); m_a > d leaves no flag."""
    d = sum(levi.ps[: t + 1])
    return [d - s // 2 for s in _quotient_slack(p, levi, t + 1)]


def _cut(floor: list[int], d: int) -> int | None:
    """The largest a at which a row of the floor table, for a flag space of
    dimension d, forces the whole space into im e^a (0 for none), or None
    when some floor exceeds d, so that no flag exists."""
    top = max(floor, default=0)
    if top > d:
        return None
    return len(floor) - floor[::-1].index(d) if top == d else 0


def _quotient_cut(below: np.ndarray, order: list[int], height: list[int], spare: list[int], p: int):
    """What _quotient_alive needs to apply a row of the floor table,
    dim(E cap im e^a) >= dim E - spare_a for a = 1 .., to the children
    E = B + <x> of one state (B the row span of ``below``), from one
    elimination of B.  ``order`` sorts the Jordan basis by the height
    d_j - i of x(i,j), ``height`` is the sorted heights, and spare_a =
    floor(slack_a / 2) (_quotient_slack) is how many dimensions of E may lie
    outside im e^a.

    im e^a is spanned by the x(i,j) of height >= a.  With r_a pivots of B's
    reduced form at heights < a (columns in height order), dim(E cap im e^a)
    = dim E - r_a - [x, reduced by B, has an entry at height < a]; an x in
    B adds no dimension.  dim E cancels: no child continues when
    r_a > spare_a for some a, and otherwise exactly the x in B + im e^a
    do, for the largest a with r_a = spare_a (none: every x).
    Returns None in the first case, else (cols, piv, R): x continues iff
    x[cols] = x[piv] R mod p."""
    R, pivots = rref(below[:, order[: bisect_left(height, len(spare))]], p)
    at = [height[col] for col in pivots]
    spare = [s - bisect_left(at, a) for a, s in enumerate(spare, 1)]
    if spare and min(spare) < 0:
        return None
    a = max((a for a, s in enumerate(spare, 1) if s == 0), default=0)
    m, k = bisect_left(height, a), bisect_left(at, a)
    return order[:m], [order[col] for col in pivots[:k]], R[:k, :m]


def _quotient_alive(cut, X: np.ndarray, p: int) -> np.ndarray:
    """Per child x, a row of X: can a flag continue below E = B + <x>, by
    the rank bound that _quotient_cut decided for B?"""
    if cut is None:
        return np.zeros(X.shape[0], dtype=bool)
    cols, piv, R = cut
    return ~((X[:, cols] - X[:, piv] @ R) % p).any(axis=1)


def first_row_nodes(p: Partition, levi: LeviType, modulus: int) -> int:
    """Nodes every count of this fiber charges before anything can end it,
    from (p, levi, modulus) alone.  With k general-linear blocks and s =
    2k + [q > 0], the first flag space E_1, of dimension d = the first
    general-linear block of ``levi``, starts from the forced subspace
    L_1 = im e^(s-1) (see fiber_point_count), spanned by the x(1,j) of the
    l parts equal to s, inside its window ker e, spanned by the x(1,j) of
    height d_j - 1.

    It is 1 when some part exceeds s (then e^s != 0 and the count is 0) or
    d <= l (L_1 alone decides the level).  Otherwise row 0 of the floor
    table (_floors) decides the level, as in fiber_point_count: 0 nodes
    when a floor exceeds d; a cut to im e^a (_cut) keeps the x(1,j) of
    height >= a, c of them (c = the number of parts with no cut).  Every
    candidate for the first echelon row is tested (see _last_row_batches):
    modulus^(c-l-1-pc) of them per pivot column pc of the c - l columns of
    a complement of L_1, for pc from the floor d - l - 1 up.  With no cut,
    E_1 needs dim(E_1 cap im e) >= m_1, the a = 1 floor, when a second
    level follows or when d = l + 1 (the level adds one row); ker e cap
    im e has dimension c2 = the number of parts >= 2, and its c2 - l
    columns come last, so at m = m_1 - l > 0 the first row's pivot is at
    least c - c2 + m - 1, and no row is tested when m exceeds c2 - l or
    d - l.  0 when ``levi`` has no general-linear block or d > c."""
    if not levi.ps:
        return 0
    k, d = len(levi.ps), levi.ps[0]
    s = 2 * k + (levi.q > 0)
    l = p.parts.count(s)
    if max(p.parts) > s or d <= l:
        return 1
    floor = _floors(p, levi, 0)
    a = _cut(floor, d)
    if a is None:
        return 0
    c, lo = sum(x > a for x in p.parts) if a else len(p.parts), d - l - 1
    if not a and floor and (k > 1 or lo == 0) and floor[0] > l:
        inside = sum(x >= 2 for x in p.parts) - l
        m = floor[0] - l
        if m > min(inside, d - l):
            return 0
        lo = max(lo, c - l - inside + m - 1)
    top = c - l - lo
    return (modulus**top - 1) // (modulus - 1) if top > 0 else 0


def precharged_skip(p: Partition, levi: LeviType, modulus: int, cap: int) -> FlagCount | None:
    """The skip that ``fiber_point_count`` must return when the first row
    alone exceeds ``cap`` nodes, decided from (p, levi, modulus) without a
    realization or any elimination; None when the first row fits."""
    if first_row_nodes(p, levi, modulus) > cap:
        return FlagCount(None, modulus, levi, cap + 1, skipped="budget")
    return None


def _charge(counter: list[int], size: int, cap: int) -> None:
    """Add ``size`` nodes to ``counter``; past ``cap`` it is set to cap + 1
    and BudgetExceeded is raised."""
    counter[0] += size
    if counter[0] > cap:
        counter[0] = cap + 1
        raise BudgetExceeded


def _complement(
    E: np.ndarray, I: np.ndarray, W: np.ndarray, p: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A basis of E + I + W (here E, I <= W) split as (rows of E, rows of I,
    rows of W): the pivot columns of [E; I; W]^T, which are the rows a
    greedy rank test would pick in order.  The rows of E need not be
    independent; the first part is a basis of their span."""
    k, j = E.shape[0], E.shape[0] + I.shape[0]
    _, pivots = rref(np.vstack([E, I, W]).T, p)
    pivots = np.array(pivots, dtype=np.intp)
    return (
        E[pivots[pivots < k]],
        I[pivots[(pivots >= k) & (pivots < j)] - k] % p,
        W[pivots[pivots >= j] - j] % p,
    )


def _last_row_batches(E, W, target, g, p, counter, cap, I=None, need=0):
    """Enumerate every isotropic F with E <= F <= W, dim F = target > dim E
    and dim(F cap I) >= need down to its last row, where I (independent
    rows, default none) spans a subspace of W.  Yields (F1, X) for each
    batch of candidates for a last row that has survivors: F1 is a basis of
    E (the independent rows of the matrix E, which may have others) plus
    the rows chosen before (one matrix per such state, shared by all its
    batches) and X holds the surviving last rows.  Each F is F1 plus one
    row of X, reached exactly once.  E must be isotropic with W inside its
    perp, so only the new rows need testing.

    F is enumerated by the reduced-echelon coefficient matrix of its new
    rows in the coordinates of a complement of E in W, built from the last
    pivot down: a row with pivot pc has free entries at the later columns
    that are not pivots yet, so all p**f candidates for it are known up
    front.  The complement ends with the u rows that extend E to E + I, so
    dim(F cap I) = dim(E cap I) + the number of rows pivoting there.  With
    m = need - dim(E cap I), the first m rows chosen must pivot there: the
    j-th pivot is at least c - u + m - 1 - j, and no other row is
    generated.
    Candidates are generated in batches of at most _BATCH rows, and each
    batch is tested in one product against the restricted Gram matrix: a
    row survives when it is isotropic and orthogonal to the rows already
    chosen.  One node is one candidate row tested.  A batch is charged to
    ``counter`` in full before it is evaluated; one that would take the
    count past ``cap`` sets it to cap + 1 and raises BudgetExceeded, so a
    check skips exactly when its total exceeds the cap.
    """
    I = W[:0] if I is None else I
    E, tail, head = _complement(E, I, W, p)
    comp = np.vstack([head, tail])
    extra, c, u = target - E.shape[0], comp.shape[0], tail.shape[0]
    m = need - (I.shape[0] - u)
    if not 0 < extra <= c or m > min(u, extra):
        return
    B = ((comp @ g) % p) @ comp.T % p

    def extend(rows: np.ndarray, pivots: tuple[int, ...]):
        chosen = rows.shape[0]
        left = extra - chosen
        floor = left - 1 if chosen >= m else max(left, c - u + m - chosen) - 1
        F1 = None
        for pc in range(floor, pivots[-1] if pivots else c):
            free = [col for col in range(pc + 1, c) if col not in pivots]
            total = p ** len(free)
            for start in range(0, total, _BATCH):
                size = min(_BATCH, total - start)
                _charge(counter, size, cap)
                digits = np.arange(start, start + size, dtype=np.int64)
                X = np.zeros((size, c), dtype=np.int64)
                X[:, pc] = 1
                for col in free:
                    X[:, col] = digits % p
                    digits //= p
                XB = (X @ B) % p
                keep = np.einsum("ij,ij->i", XB, X) % p == 0
                if rows.shape[0]:
                    keep &= ~np.any((XB @ rows.T) % p, axis=1)
                X = X[keep]
                if left > 1:
                    for x in X:
                        yield from extend(np.vstack([rows, x]), pivots + (pc,))
                elif X.shape[0]:
                    if F1 is None:
                        F1 = np.vstack([E, (rows @ comp) % p])
                    yield F1, (X @ comp) % p

    yield from extend(np.zeros((0, c), dtype=np.int64), ())


def _closing_mask(A: np.ndarray, M: np.ndarray, p: int) -> np.ndarray:
    """Per row a of A: does M vanish on ker(a) x ker(a)?  With a pivot i
    (a_i != 0), ker(a) is spanned by a_i e_j - a_j e_i, so it does iff
        a_i^2 M - a_i (M[:, i] (x) a) - a_i (a (x) M[i, :]) + M_ii (a (x) a)
    vanishes mod p.  That is a_i D - a (x) D[i, :] for D = a_i M - M[:, i] (x) a.
    Rows are taken _LEAF_SLICE at a time, and every product has factors of
    size below p, so n (p - 1)^2 < 2^63 bounds them all."""
    nonzero = A != 0
    if not nonzero.any(axis=1).all():
        raise InvariantError("a last row lies in the span it extends")
    pivot = nonzero.argmax(axis=1)
    out = np.empty(A.shape[0], dtype=bool)
    for s in range(0, A.shape[0], _LEAF_SLICE):
        a = A[s : s + _LEAF_SLICE]
        i = pivot[s : s + _LEAF_SLICE]
        r = np.arange(a.shape[0])
        ai = a[r, i][:, None, None]
        # Two (rows, m, m) buffers, reduced in place to keep the peak low.
        # D = a_i M - M[:, i] (x) a
        D = ai * M
        D %= p
        T = M[:, i].T[:, :, None] * a[:, None, :]
        T %= p
        D -= T
        # T = a_i D - a (x) D[i, :], with D's buffer holding the second term
        Di = D[r, i][:, None, :]
        np.multiply(ai, D, out=T)
        T %= p
        np.multiply(a[:, :, None], Di, out=D)
        D %= p
        T -= D
        out[s : s + _LEAF_SLICE] = ~np.any(T, axis=(1, 2))  # |T| < p
    return out


def _fits(W: np.ndarray, target: int, g: np.ndarray, p: int) -> bool:
    """Can an isotropic F of dimension ``target`` lie in the window spanned
    by the rows of W?  Not when W is smaller than that, nor when it has
    that dimension and is not isotropic."""
    if W.shape[0] != target:
        return W.shape[0] > target
    return not np.any(W @ g % p @ W.T % p)


def _child_windows(
    Bg: np.ndarray, Y: np.ndarray, Ye: np.ndarray, Lg: np.ndarray, X: np.ndarray, g: np.ndarray, p: int
) -> list[np.ndarray]:
    """The window (E + L)^perp cap e^{-1}(E) of each child E = B + <x>, x a
    row of X, given Bg = B g, a basis Y of ann(B) = {y : B y = 0}, Ye = Y e
    and Lg = L g: one nullspace of [B g; x g; L g; ann(E) e] per child, as
    e^{-1}(E) = (ann(E) e)^perp.  ann(E) is ann(B) cut by c = Y x, spanned by
    Y_k - (c_k / c_j) Y_j for c_j the first nonzero entry of c (row j
    becomes 0), or by Y when c = 0; only its image under e is formed, in
    one update of Ye per child.  nullspace depends only on the span of its
    rows, so this spanning set gives the window that a nullspace of E
    would."""
    C = X @ Y.T % p
    first = (C != 0).argmax(axis=1)
    lead = C[np.arange(C.shape[0]), first].tolist()
    scale = np.array([pow(c, -1, p) if c else 0 for c in lead], dtype=np.int64)
    ratios = C * scale[:, None] % p  # 0 when c = 0
    return [
        nullspace(np.vstack([Bg, xg, Lg, Ye - ratio[:, None] * Ye[j]]), p)
        for xg, ratio, j in zip(X @ g % p, ratios, first)
    ]


def _forced_subspaces(heights: list[int], s: int, k: int) -> tuple[list[np.ndarray], bool]:
    """Row bases of L_i = im e^(s-i) for i = 1..k, and whether e^s = 0, on
    realize's Jordan basis, whose x(i,j) has height d_j - i (``heights``, in
    coordinate order).  im e^a is spanned by the x(i,j) of height >= a, so
    L_i is the identity rows at those coordinates, in order (its reduced
    form), and e^s = 0 when no height reaches s (max part <= s).
    fiber_point_count takes s = 2k + 1, or s = 2k when q = 0."""
    eye = np.eye(len(heights), dtype=np.int64)
    bases = [eye[[c for c, h in enumerate(heights) if h >= s - i]] for i in range(1, k + 1)]
    return bases, max(heights) < s


def fiber_point_count(
    real: JordanRealization, levi: LeviType, budget: int | None = None
) -> FlagCount:
    """Count isotropic chains E_1 < ... < E_k with dim E_i = p_1 + ... + p_i,
    e(E_1) = 0, e(E_i) <= E_{i-1}, and e(E_k^perp) <= E_k.

    Every such chain contains the forced subspaces L_i = im e^(s-i), with
    s = 2k + 1, or s = 2k when q = 0:
      E_i <= ker e^i by induction, so E_k^perp >= (ker e^k)^perp = im e^k;
      then e(E_k^perp) <= E_k gives E_k >= im e^(k+1), and when q = 0,
      E_k = E_k^perp already gives E_k >= im e^k: that is L_k;
      and e(E_i) <= E_{i-1} carries it down: E_{i-1} >= e(L_i) = L_{i-1}.
    So L_1 <= E_1 <= ker e needs e^s = 0, that is max part <= s, else the
    count is 0.  The bases L_i are built once per check, with no
    elimination: im e^a is spanned by the Jordan coordinates x(i,j) of
    height d_j - i >= a, so L_i is the identity rows at the heights >= s - i
    (_forced_subspaces).  Their isotropy and E_{i-1} perp L_i both
    follow from E_{i-1} <= ker e^(i-1), as <e^a x, y> = +-<x, e^a y> and
    s - i >= i - 1; they are checked, and a failure raises InvariantError.

    One floor table prunes every level.  The flags below E_t are flags of
    the induced e' on E_t^perp/E_t, of dimension N' = n - 2 dim E_t, for the
    Levi (p_{t+1}, ..., p_k; q), and e' lowers the chain E'_{t+1} < ... <
    E'_k^perp strictly.  On that nilradical rank x^a is at most N' - S_a,
    S_a the sum of the a largest steps among p_{t+1}, ..., p_k, q, p_k, ...,
    p_{t+1}, as rank is lower semicontinuous.  And rank e'^a >= rank e^a -
    2 dim(E_t cap im e^a), since dim e^a(E_t^perp) = rank e^a - dim(E_t cap
    im e^a) and e^a(E_t^perp) meets E_t inside E_t cap im e^a.  So every
    counted flag has dim(E_t cap im e^a) >= m_{t,a} = ceil(dim E_t -
    slack_a / 2), slack_a = n - rank e^a - S_a (_quotient_slack, _floors):
    a table of (partition, Levi) alone, built once per check.  At t = k the
    chain is q alone, and the floor is the closing test's own.  The
    enumeration recurses through isotropic E_t that contain E_{t-1} + L_t,
    inside the window E_{t-1}^perp cap e^{-1}(E_{t-1}) cap L_t^perp, adding
    one reduced-echelon row at a time and dropping each candidate row as
    soon as it fails isotropy, and it reads the table three ways:
    - The cut.  When m_{t,a} = dim E_t, all of E_t lies in im e^a, which is
      spanned by the Jordan coordinates x(i,j) of height d_j - i >= a.  For
      the largest such a (_cut) the window shrinks to its part in im e^a,
      one nullspace of its columns at heights < a.  A start E_{t-1} + L_t
      with an entry there, or a floor above dim E_t, counts 0.  The whole
      window lies in ker e^t and so is orthogonal to L_k; that is checked
      before the table cuts or ends the level, dropping rows that settle
      would check.
    - The a = 1 floor.  With no cut, E_t with dim(E_t cap im e) below
      m_{t,1} are never generated (_last_row_batches, with I = window cap
      im e) when another level follows, or when the level adds one row to
      E_{t-1} + L_t (one rank); a last level that adds several rows keeps
      its plain order, where the floor's reordered complement can cost
      more nodes than it saves.
    - The children.  A child E = B + <x> of an enumerated or filled level
      that is to be enumerated at level i is dropped when it fails a floor
      of its own level i - 1, decided by one elimination of B per state
      and level (_quotient_cut) and one product per batch (_quotient_alive).

    Level i is fillable when dim E_{i-1} + dim L_i - dim L_{i-1} >= dim E_i,
    which depends on (partition, Levi) alone: E_{i-1} + L_i may then fill
    the level, which has one candidate (or none, when it overfills) and is
    charged one node.  Every enumerated level hands its children, the
    batches of _last_row_batches, to settle, and the root enters settle as
    the one child x = 0 of F1 = 0.  settle decides the children's run of
    fillable levels, which may be empty, in those batches: per state F1
    and level i of the run, one nullspace gives Q, a basis of
    (F1 + L_i)^perp, and a child x reaches dim(F1 + L_i) + [Q g x != 0] at
    level i.  A child that overfills counts 0.  After the run, a child past
    the last level is closed: F = (F^perp)^perp, so e(F^perp) <= F exactly
    when the form (u, v) -> <e u, v> vanishes on F^perp, and _closing_mask
    decides that for a whole batch from Q eg Q^T, with Q a basis of
    (F1 + L_k)^perp (of F1^perp when the last level was enumerated, as
    L_k <= F1 there).  A child that falls short of level i, or that the run
    leaves short of the level after it, is enumerated there unless the
    table drops it.  A child that is kept builds its window
    (E + L_i)^perp cap e^{-1}(E), E = F1 + L_{i-1} + <x>, by one
    elimination: e^{-1}(E) is (ann(E) e)^perp, and ann(E) comes from one
    basis of ann(F1 + L_{i-1}) per state and level by a rank-one update
    (_child_windows).  It is not enumerated when the window is smaller than
    dim E_i, or of that dimension and not isotropic (_fits).

    A node is one candidate row generated and tested, or one level decided
    by its forced subspace; deciding a run in batches charges the same node
    per child and level as recursing into each child would.  What the
    table removes costs none: a child it drops, a level it ends or cuts
    away, and every row below the a = 1 floor; nor does a child whose
    window cannot reach its level.  The budget caps the nodes: a check
    whose total would exceed it returns an explicit skip with
    ``nodes == budget + 1``, never a wrong count.

    Every count charges its first_row_nodes before anything can end it, so
    they are charged up front: when they alone exceed the budget, the same
    skip returns before any elimination (precharged_skip).
    """
    if levi.family is not real.family or levi.n != real.dim:
        raise ValueError(f"{levi} does not match a realization of size {real.dim}")
    cap = resolve_budget(budget)
    skip = precharged_skip(real.partition, levi, real.modulus, cap)
    if skip is not None:
        return skip
    p, e, g = real.modulus, real.e, real.gram
    n = real.dim
    if not levi.ps:  # the only flag is E = 0, and e(V) <= 0 iff e = 0
        return FlagCount(0 if np.any(e % p) else 1, p, levi, 0)
    dims = list(itertools.accumulate(levi.ps))
    last = len(dims) - 1
    # The heights d_j - i of the Jordan basis x(i,j), as plain lists: numpy's
    # sorting and searching code adds to peak RSS.
    heights = [d - j for d in real.partition.parts for j in range(1, d + 1)]
    forced, nilpotent = _forced_subspaces(heights, 2 * len(dims) + (levi.q > 0), len(dims))
    if not nilpotent:  # L_1 is not in ker e: one node decides the count
        return FlagCount(0, p, levi, 1)
    forced_g = [L @ g % p for L in forced]
    for L, Lg in zip(forced, forced_g):
        if np.any(Lg @ L.T % p):
            raise InvariantError(f"im e^a is not isotropic ({real.partition}, {levi}, p={p})")
    counter = [0]
    eg = (e.T @ g) % p
    # Level i is fillable when E_{i-1} + L_i may reach dims[i]: dim L_i
    # grows by more than the level adds, as E_{i-1} >= L_{i-1}.
    sizes = [0] + [L.shape[0] for L in forced]
    fills = [([0] + dims)[i] + sizes[i + 1] - sizes[i] >= dims[i] for i in range(last + 1)]
    # The floor table, its cut per level, and per level the dimensions of a
    # level space that may lie outside im e^a.
    floors = [_floors(real.partition, levi, t) for t in range(last + 1)]
    cuts = [_cut(floor, d) for floor, d in zip(floors, dims)]
    spares = [[d - m for m in floor] for floor, d in zip(floors, dims)]

    order = sorted(range(n), key=heights.__getitem__)  # the Jordan basis by height
    height = [heights[col] for col in order]

    def image(W: np.ndarray, a: int) -> np.ndarray:
        """W cap im e^a: the rows of W's span with no entry at height < a."""
        return nullspace(W[:, order[: bisect_left(height, a)]].T, p) @ W % p

    def orthogonality_error(t: int) -> InvariantError:
        return InvariantError(
            f"E_{t} is not orthogonal to L_{t + 1} ({real.partition}, {levi}, p={p})"
        )

    def recurse(E: np.ndarray, window: np.ndarray, t: int) -> int:
        """Enumerate level t over E = E_{t-1} in its window (E + L_t)^perp
        cap e^{-1}(E), which can reach dims[t], and settle its children.
        With a cut, the window shrinks to its part in im e^a, which must
        hold E + L_t; with none, the a = 1 floor holds back every F with
        dim(F cap im e) below it when another level follows, or when the
        level adds one row to E + L_t.  0 when some floor exceeds dims[t]."""
        a = cuts[t]
        # The whole window lies in ker e^(t+1), so it is orthogonal to L_k,
        # which holds every L_i: check it before the table drops rows that
        # settle would have checked.
        if a != 0 and t < last and np.any(window @ forced_g[last].T % p):
            raise orthogonality_error(last)
        if a is None:
            return 0
        start = E if sizes[t + 1] == sizes[t] else np.vstack([E, forced[t]])
        inside, need = None, 0
        if a:
            if start[:, order[: bisect_left(height, a)]].any():
                return 0
            window = image(window, a)
        elif floors[t] and floors[t][0] > 0 and (t < last or dims[t] - rank(start, p) == 1):
            inside, need = image(window, 1), floors[t][0]
            if inside.shape[0] < need:
                return 0
        return settle(
            _last_row_batches(start, window, dims[t], g, p, counter, cap, inside, need), t + 1
        )

    def settle(batches, t: int) -> int:
        """The count below the children F1 + <x> of level t - 1, given as
        the batches (F1, X) of _last_row_batches, deciding the run t..end-1
        of fillable levels, which may be empty, in those batches.  Below
        level i - 1 >= t a child is F1 + L_{i-1} + <x>, so E_{i-1} + L_i =
        F1 + L_i + <x>, of dimension dim(F1 + L_i) + [G x != 0].  A child
        that falls short of level i, or that the run leaves short of level
        end, descends into that level.  After the run, a child past the last
        level is closed."""
        end = t
        while end <= last and fills[end]:
            end += 1

        def basis(i: int):
            """(dim(F1 + L_i), G = Q g, M = Q eg Q^T at the last level)
            for Q a basis of (F1 + L_i)^perp, built once per state and
            level.  A level enumerated above the run (i < t) has L_i <= F1."""
            if i not in bases:
                rows = F1g
                if i >= t:
                    if np.any(F1g @ forced[i].T % p):
                        raise orthogonality_error(i)
                    rows = np.vstack([F1g, forced_g[i]])
                Q = nullspace(rows, p)
                M = Q @ eg % p @ Q.T % p if i == last else None
                bases[i] = n - Q.shape[0], Q @ g % p, M
            return bases[i]

        def descend(X: np.ndarray, i: int) -> int:
            """The count below the children of X, whose level i is
            enumerated: each child x whose quotient can hold the levels left
            (for i >= 1) and that can reach dims[i] in its window, of
            E = B + <x> for B = F1 + L_{i-1}, recurses with it.  A basis Y
            of ann(B) is built once per state and level (_child_windows)."""
            below = F1 if i == t else np.vstack([F1, forced[i - 1]])
            if i:  # drop each child below the floors of level i - 1
                if i not in bounds:
                    bounds[i] = _quotient_cut(below, order, height, spares[i - 1], p)
                X = X[_quotient_alive(bounds[i], X, p)]
            if i not in annihilators:
                Y = nullspace(below, p)
                Bg = F1g if i == t else np.vstack([F1g, forced_g[i - 1]])
                annihilators[i] = Bg, Y, Y @ e % p
            windows = _child_windows(*annihilators[i], forced_g[i], X, g, p)
            spaces = [np.vstack([below, x]) for x in X]
            return sum(recurse(E, W, i) for E, W in zip(spaces, windows) if _fits(W, dims[i], g, p))

        total, state = 0, None
        for F1, X in batches:
            if F1 is not state:
                state, F1g, bases, bounds, annihilators = F1, F1 @ g % p, {}, {}, {}
            for i in range(t, end):
                if np.any(X @ forced_g[i].T % p):
                    raise orthogonality_error(i)
                size, G, _ = basis(i)
                A = X @ G.T % p
                reach = size + A.any(axis=1)  # dim(F1 + L_i + <x>)
                _charge(counter, int(np.count_nonzero(reach >= dims[i])), cap)
                short = reach < dims[i]
                if short.any():
                    total += descend(X[short], i)
                fit = reach == dims[i]
                X, A = X[fit], A[fit]
                if not X.shape[0]:
                    break
            if not X.shape[0]:
                continue
            if end <= last:
                if np.any(X @ forced_g[end].T % p) or np.any(F1g @ forced[end].T % p):
                    raise orthogonality_error(end)
                total += descend(X, end)
                continue
            # F = F1 + L_k + <x> closes iff M vanishes on F^perp = ker(G x) in Q
            # coordinates (_closing_mask); when G x = 0, F^perp is all of Q.
            size, G, M = basis(last)
            if end == t:  # the last level was enumerated, so no run built A
                A = X @ G.T % p
            if size < dims[last]:
                total += int(np.count_nonzero(_closing_mask(A, M, p)))
            elif not np.any(M):
                total += X.shape[0]
        return total

    try:  # the root is the one child x = 0 of F1 = 0
        value = settle([(np.zeros((0, n), dtype=np.int64), np.zeros((1, n), dtype=np.int64))], 0)
    except BudgetExceeded:
        return FlagCount(None, p, levi, counter[0], skipped="budget")
    return FlagCount(value, p, levi, counter[0])
