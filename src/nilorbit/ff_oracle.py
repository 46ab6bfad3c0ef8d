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

All of this is integer data: one model over Z per orbit (_model), checked
once (_check_model), which each prime's realization reduces (realize).
"""
from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from ._linalg import det, np, nullspace, rref
from .errors import InvariantError
from .levi import LeviType
from .partitions import Family, Partition, is_valid

DEFAULT_BUDGET = 1_000_000
# Candidate rows generated and tested per numpy product; keeps memory flat.
_BATCH = 1024
_INT64_LIMIT = 2**63


def resolve_budget(budget: int | None = None, default: int = DEFAULT_BUDGET) -> int:
    """``budget``, else ``default``.  A negative budget is a ValueError."""
    if budget is None:
        return default
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


@dataclass(frozen=True, eq=False)
class JordanModel:
    """realize's model over Z of a nilpotent e of Jordan type ``partition``
    and its invariant form g, on the Jordan basis of the module docstring:
    the nonzero entries of e and of g, by (row, column).  _model builds one
    per (partition, family) and checks it once (_check_model); every
    realization of the orbit reduces it mod its prime (reduce)."""

    family: Family
    partition: Partition
    e: Mapping[tuple[int, int], int]
    gram: Mapping[tuple[int, int], int]

    @functools.cached_property
    def _flat(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The row-major positions and the values of the entries of e and of g."""
        n = self.partition.n
        return [
            (np.array([i * n + j for i, j in entries], dtype=np.intp),
             np.array(list(entries.values()), dtype=np.int64))
            for entries in (self.e, self.gram)
        ]

    @functools.cached_property
    def det(self) -> int:
        """det g over Z, by elimination on sparse integer rows: a row is
        multiplied by the pivot before the pivot row is taken off it, and
        the product of those factors is divided out at the end, so every
        step is exact.  A row with no entry in the pivot column costs
        nothing, so a g with one entry per row and column costs no
        elimination at all."""
        rows: list[dict[int, int]] = [{} for _ in range(self.partition.n)]
        for (i, j), v in self.gram.items():
            rows[i][j] = v
        value = scale = 1
        for c in range(len(rows)):
            k = next((k for k in range(c, len(rows)) if rows[k].get(c)), None)
            if k is None:
                return 0
            rows[c], rows[k] = rows[k], rows[c]
            pivot = rows[c]
            a = pivot.pop(c)
            value *= a if k == c else -a
            for row in rows[c + 1 :]:
                x = row.pop(c, 0)
                if x:
                    scale *= a
                    for j, v in pivot.items():
                        row[j] = a * row.get(j, 0) - x * v
                    for j in row.keys() - pivot.keys():
                        row[j] *= a
        return value // scale

    def reduce(self, modulus: int) -> list[np.ndarray]:
        """e and g mod ``modulus``, as fresh n-by-n int64 arrays."""
        n = self.partition.n
        out = []
        for positions, values in self._flat:
            dense = np.zeros(n * n, dtype=np.int64)
            dense[positions] = values % modulus
            out.append(dense.reshape(n, n))
        return out


@dataclass(frozen=True, eq=False)
class JordanRealization:
    """A nilpotent matrix in Jordan form together with a split invariant
    form over F_p.  Immutable, with read-only arrays, so that the
    discriminants it keeps (disc) stay true: a changed realization is a
    new one (dataclasses.replace), which computes its own."""

    family: Family
    partition: Partition
    modulus: int
    e: np.ndarray
    gram: np.ndarray
    _discs: dict[int, int] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        self.e.flags.writeable = self.gram.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.e.shape[0]

    def disc(self, a: int) -> int:
        """The det of the nondegenerate part of the form <x, e^a y>, whose
        Gram matrix is g e^a (_discriminant): det g at a = 0, else one rref
        and one det of g e^a.  Each is computed once per realization, and
        realize gives det g from its model's det over Z."""
        if a not in self._discs:
            p = self.modulus
            if a:
                G = self.gram @ np.linalg.matrix_power(self.e, a) % p
                self._discs[a] = _discriminant(G, p, rref(G, p)[1])
            else:
                self._discs[a] = det(self.gram, p)
        return self._discs[a]


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


@functools.lru_cache(maxsize=None)
def _model(p: Partition, family: Family) -> JordanModel:
    """The integer model of realize for the orbit ``p`` of ``family``,
    built and checked over Z (_check_model) once per orbit.  The cache
    holds index maps, not dense arrays, so it stays small at any rank."""
    if not is_valid(p, family):
        raise ValueError(f"{p} is not valid for family {family.value}")
    parts = p.parts
    start = list(itertools.accumulate(parts, initial=0))  # x(i,j) is at start[j] + i - 1
    e = {(s + i - 1, s + i): 1 for s, d in zip(start, parts) for i in range(1, d)}

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
    gram = {}
    for j, d in enumerate(parts):
        if beta[j] == j:
            for i in range(1, d + 1):
                gram[start[j] + i - 1, start[j] + d - i] = units[j] * (-1) ** (i - 1)
        elif beta[j] > j:
            b = beta[j]
            for i in range(1, d + 1):
                s = (-1) ** (i - 1)
                gram[start[j] + i - 1, start[b] + d - i] = s
                gram[start[b] + d - i, start[j] + i - 1] = eps * s
    model = JordanModel(family, p, MappingProxyType(e), MappingProxyType(gram))
    _check_model(model)
    return model


def _check_model(model: JordanModel) -> None:
    """The checks of realize that no prime enters, run once per orbit and
    exactly over Z, on the entries: g^T = eps g; e is a 0/1 partial
    permutation; the form is e-invariant, e^T g + g e = 0; and rank e^k =
    sum max(d - k, 0) over the parts d, for every k until it is 0.  The
    first and third are identities of integer matrices, so they hold mod
    every prime.  A power of a 0/1 partial permutation is one too, and its
    rank over any field is its number of entries 1, so the ranks hold mod
    every prime as well.  The last two checks read e as the partial
    permutation that the second one proves: e x_c = x_r for each entry
    (r, c)."""

    def require(ok, what: str) -> None:
        if not ok:
            raise InvariantError(f"{what} ({model.family.value}, {model.partition}, over Z)")

    e, g, eps = model.e, model.gram, model.family.epsilon
    require(all(g.get((j, i), 0) == eps * v for (i, j), v in g.items()), "form symmetry broken")
    ones = [key for key, v in e.items() if v]
    lines = zip(*ones)  # the rows and the columns of the entries 1
    require(set(e.values()) <= {0, 1} and all(len(set(x)) == len(ones) for x in lines),
            "e is not a 0/1 partial permutation")
    # (e^T g + g e)[a, b] = <e x_a, x_b> + <x_a, e x_b>: for each entry
    # (r, c) of e, g[r, b] adds to (c, b) and g[a, r] to (a, c).
    source = {r: c for r, c in ones}
    invariance: dict[tuple[int, int], int] = {}
    for (i, j), v in g.items():
        if i in source:
            key = source[i], j
            invariance[key] = invariance.get(key, 0) + v
        if j in source:
            key = i, source[j]
            invariance[key] = invariance.get(key, 0) + v
    require(not any(invariance.values()), "form is not e-invariant")
    down = {c: r for r, c in ones}
    image = down  # e^k x_c for each c that e^k does not kill, from k = 1 on
    for k in itertools.count(1):
        expected = sum(max(d - k, 0) for d in model.partition.parts)
        require(len(image) == expected, f"rank of e^{k} is not {expected}")
        if expected == 0:
            break
        image = {c: down[r] for c, r in image.items() if r in down}


def realize(p: Partition, family: Family, modulus: int) -> JordanRealization:
    """Nilpotent element of Jordan type ``p`` with a split invariant form
    over F_modulus.  Only odd prime moduli are accepted.

    The orbit's integer model (_model) is built, and checked over Z, once
    per orbit; each call reduces it mod ``modulus`` into fresh arrays and
    runs only the checks that depend on the prime (_validate).  Reduction
    mod q is a ring map, so det(g mod q) is the model's det over Z mod q:
    the realization's disc(0) starts from it, and _validate reads it."""
    model = _model(p, family)
    check_modulus(modulus, p.n)
    real = JordanRealization(family, p, modulus, *model.reduce(modulus))
    real._discs[0] = model.det % modulus  # det(g mod q) = det g mod q
    _validate(real)
    return real


def _validate(real: JordanRealization) -> None:
    """The checks of realize that depend on the prime p, run on every
    realization: g^T = eps g mod p, det g != 0 mod p, and for D that the
    form is split, (-1)^(n/2) det g a square mod p.  The other checks are
    identities over Z, made once per orbit on the model (_check_model),
    and hold mod every prime: g^T = eps g over Z gives it mod p too, but
    it is checked here again, on the arrays that the counts read."""
    p, g = real.modulus, real.gram

    def require(ok, what: str) -> None:
        if not ok:
            raise InvariantError(f"{what} ({real.family.value}, {real.partition}, p={p})")

    require(not ((g.T - real.family.epsilon * g) % p).any(), "form symmetry broken")
    det_g = real.disc(0)
    require(det_g, "form is degenerate")
    if real.family is Family.D:
        target = ((-1) ** (real.dim // 2)) % p
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


def _floors(p: Partition, levi: LeviType, t: int) -> list[int]:
    """Row t of _enumerate's floor table: m_a = ceil(d - slack_a / 2) for
    a = 1 .. max(p) - 1, the least dim(E_{t+1} cap im e^a) of any counted
    flag.  Here d = dim E_{t+1} = p_1 + ... + p_{t+1}, slack_a = n - rank e^a
    - S_a = dim ker e^a - S_a, and S_a is the sum of the a largest steps of
    the chain p_{t+2}, ..., p_k, q, p_k, ..., p_{t+2} left below E_{t+1}.
    m_a = d puts all of E_{t+1} in im e^a (_cut); m_a > d leaves no flag.
    It reads only the parts of p and the steps of levi."""
    parts = p.parts
    d = sum(levi.ps[: t + 1])
    steps = sorted(levi.ps[t + 1 :] * 2 + (levi.q,) + (0,) * parts[0], reverse=True)
    floor, kernel, j = [], 0, len(parts)
    for a, top in zip(range(1, parts[0]), itertools.accumulate(steps)):
        while parts[j - 1] < a:  # j = the number of parts >= a
            j -= 1
        kernel += j
        floor.append(d - (kernel - top) // 2)
    return floor


def _cut(floor: list[int], d: int) -> int | None:
    """The largest a at which a row of the floor table, for a flag space of
    dimension d, forces the whole space into im e^a (0 for none), or None
    when some floor exceeds d, so that no flag exists."""
    top = max(floor, default=0)
    if top > d:
        return None
    return len(floor) - floor[::-1].index(d) if top == d else 0


def precharged_skip(levi: LeviType, modulus: int, cap: int) -> FlagCount | None:
    """The skip that ``fiber_point_count`` returns before any realization
    or elimination: a check costs at least one node when ``levi`` has a
    general-linear block and none otherwise, so it skips when that exceeds
    ``cap``.  None when it does not."""
    if bool(levi.ps) > cap:
        return FlagCount(None, modulus, levi, cap + 1, skipped="budget")
    return None


def _charge(counter: list[int], size: int, cap: int) -> None:
    """Add ``size`` nodes to ``counter``; past ``cap`` it is set to cap + 1
    and BudgetExceeded is raised."""
    counter[0] += size
    if counter[0] > cap:
        counter[0] = cap + 1
        raise BudgetExceeded


def _last_row_batches(E, W, target, g, p, counter, cap):
    """Enumerate every isotropic F with E <= F <= W and dim F = target >
    dim E down to its last row.  Yields (F1, X) for each batch of
    candidates for a last row that has survivors: F1 is a basis of E (the
    independent rows of the matrix E, which may have others) plus the rows
    chosen before (one matrix per such state, shared by all its batches)
    and X holds the surviving last rows.  Each F is F1 plus one row of X,
    reached exactly once.  E must be isotropic with W inside its perp, so
    only the new rows need testing.

    F is enumerated by the reduced-echelon coefficient matrix of its new
    rows in the coordinates of a complement of E in W (the rows of W that a
    greedy rank test after those of E picks, from the pivot columns of
    [E; W]^T), built from the last pivot down: a row with pivot pc has free
    entries at the later columns that are not pivots yet, so all p**f
    candidates for it are known up front.
    Candidates are generated in batches of at most _BATCH rows, and each
    batch is tested in one product against the restricted Gram matrix: a
    row survives when it is isotropic and orthogonal to the rows already
    chosen.  One node is one candidate row tested.  A pivot column's p**f
    candidates are charged to ``counter`` in one sum before its first batch
    is evaluated; a sum that would take the count past ``cap`` sets it to
    cap + 1 and raises BudgetExceeded, so a check skips exactly when its
    total exceeds the cap, and a row with more candidates than the cap
    skips before any is generated.
    """
    k = E.shape[0]
    cols = np.array(rref(np.vstack([E, W]).T, p)[1], dtype=np.intp)
    E, comp = E[cols[cols < k]], W[cols[cols >= k] - k] % p
    extra, c = target - E.shape[0], comp.shape[0]
    if not 0 < extra <= c:
        return
    B = ((comp @ g) % p) @ comp.T % p

    def extend(rows: np.ndarray, pivots: tuple[int, ...]):
        left = extra - rows.shape[0]
        F1 = None
        for pc in range(left - 1, pivots[-1] if pivots else c):
            free = [col for col in range(pc + 1, c) if col not in pivots]
            total = p ** len(free)
            _charge(counter, total, cap)
            for start in range(0, total, _BATCH):
                size = min(_BATCH, total - start)
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

    try:
        yield from extend(np.zeros((0, c), dtype=np.int64), ())
    finally:  # extend refers to itself: free it without the cyclic collector
        del extend


def _heights(p: Partition) -> list[int]:
    """The heights d_j - i of realize's Jordan basis x(i,j), in coordinate
    order: im e^a is spanned by the x(i,j) of height >= a."""
    return [d - i for d in p.parts for i in range(1, d + 1)]


def _peel(
    parts: tuple[int, ...], steps: tuple[int, ...], q: int
) -> int | tuple[int, tuple[int, ...], int] | None:
    """The peel of fiber_point_count, from the parts of a Jordan type and the
    steps and q of a Levi alone: while some part equals s = 2k + [q > 0],
    take off the m parts equal to s, lower every step by m and q by m
    [q > 0], and merge the levels of zero steps.  0 when a part exceeds s
    or a step or q turns negative (no flag); (m_1, steps, m_2) when only
    parts 1 remain (m_2 = 0), or only parts 2 and 1 under one level (the
    closed form's V_1, its flag's steps and the number of parts 2); None
    when no part equals s and two or more levels remain, where the flags
    are enumerated.  So a peel with one level, or none, always decides."""
    while True:
        s = 2 * len(steps) + (q > 0)
        if parts and parts[0] > s:
            return 0
        if not parts or parts[0] == 1:
            return len(parts), steps, 0
        m = parts.count(s)
        if not m:  # one level has s = 3 here, so the parts are 2 and 1
            return (parts.count(1), steps, parts.count(2)) if len(steps) == 1 else None
        parts, steps, q = parts[m:], tuple(x - m for x in steps), q - m if q else 0
        if q < 0 or min(steps, default=0) < 0:
            return 0
        steps = tuple(x for x in steps if x)


def _isotropic_vectors(m: int, p: int, symplectic: bool, split: bool) -> int:
    """iso(m): the nonzero isotropic vectors of a nondegenerate form on F_p^m,
    symplectic, or symmetric and (for even m) split or not."""
    if m <= 0:
        return 0
    if symplectic:
        return p**m - 1
    if m % 2:
        return p ** (m - 1) - 1
    sign = 1 if split else -1
    return (p ** (m // 2) - sign) * (p ** (m // 2 - 1) + sign)


def _gl_factorial(t: int, p: int) -> int:
    """[t]_p! up to the factor (p - 1)^t: prod_{j<=t} (p^j - 1)."""
    return math.prod(p**j - 1 for j in range(1, t + 1))


def _isotropic_subspaces(m: int, r: int, p: int, symplectic: bool, split: bool) -> int:
    """N(r): the totally isotropic r-dimensional subspaces of a nondegenerate
    form on F_p^m, prod_{i<r} iso(m - 2i) / prod_{j<=r} (p^j - 1)."""
    isotropic = math.prod(_isotropic_vectors(m - 2 * i, p, symplectic, split) for i in range(r))
    return isotropic // _gl_factorial(r, p)


def _is_square(x: int, p: int) -> bool:
    """Whether the unit x is a square mod p (Euler's criterion)."""
    return pow(x % p, (p - 1) // 2, p) == 1


def _flag_sum(
    p: int, symplectic: bool, ones: int, steps: tuple[int, ...], twos: int, split: bool
) -> int:
    """The flags of the peel's last shape, as in fiber_point_count: on the
    span V_2 + V_1 of m_2 = ``twos`` Jordan chains of length 2 and m_1 =
    ``ones`` of length 1, with r = sum(steps), S [r; steps]_p for
        S = sum_{f = ceil(m_2/2)}^{min(m_2, r)} N_b(m_2 - f) N_1(r - f) p^((r - f)(m_2 - f)),
    which is N_1(r) when m_2 = 0 (the peel leaves m_2 > 0 only under one
    level, where [r; r]_p = 1).  N_1 counts the isotropic subspaces of V_1,
    whose form is symplectic when ``symplectic`` and symmetric otherwise,
    and N_b those of b(u, v) = <e^-1 u, v> on U = e(V_2), of the other
    kind; ``split`` says whether the symmetric one of the two is split,
    which matters only for an even dimension."""
    r = sum(steps)
    total = sum(
        _isotropic_subspaces(twos, twos - f, p, not symplectic, split)
        * _isotropic_subspaces(ones, r - f, p, symplectic, split)
        * p ** ((r - f) * (twos - f))
        for f in range((twos + 1) // 2, min(twos, r) + 1)
    )
    return total * (_gl_factorial(r, p) // math.prod(_gl_factorial(x, p) for x in steps))


def _discriminant(G: np.ndarray, p: int, pivots: list[int]) -> int:
    """The det of the nondegenerate part of the symmetric or alternating
    form with Gram matrix G: that of G's principal block on ``pivots``,
    the pivot columns of an rref of G, which is nonsingular."""
    return det(G[np.ix_(pivots, pivots)], p)


def _shape_count(
    real: JordanRealization, shape: int | tuple[int, tuple[int, ...], int] | None,
    disc: Callable[[int], int],
) -> int | None:
    """_flag_sum for a shape (m_1, steps, m_2) that _peel leaves of the
    Jordan type of a nilpotent e in real's family (0 for the peel's 0, and
    None where it does not decide).  A
    symmetric V_1 or b of even dimension m > 0 is split iff (-1)^(m/2) det
    is a square mod p, and its det comes from disc(a), the det of the
    nondegenerate part of <x, e^a y>, called only then and under a step.
    V splits orthogonally into Jordan chains: a self-paired one of length
    j > a with unit u adds (-1)^(a(j-a)) u^(j-a) to disc(a), a pair of
    length j > a adds eps^(j-a) (-1)^((j-a)(a+1)).  So for B and D, V_1's
    det is disc(0) disc(2): the chains of length 1 add their units to
    disc(0) alone, every other self-paired chain (odd, j >= 3) adds
    u^(2j-2), and a pair adds 1.  For C, b's det is disc(1): a shape with
    m_2 > 0 kept q > 0 through the whole peel, so only odd chains, paired
    and adding 1, were peeled off, and a chain of length 2 with unit u adds
    -u, as its top t does to b: b(et, et) = <t, et>."""
    if not shape:
        return shape
    ones, steps, twos = shape
    p, symplectic = real.modulus, real.family is Family.C
    m = twos if symplectic else ones
    split = True
    if steps and m and not m % 2:
        d = disc(1) if symplectic else disc(0) * disc(2)
        split = _is_square((-1) ** (m // 2) * d, p)
    return _flag_sum(p, symplectic, ones, steps, twos, split)


def _state_count(
    real: JordanRealization, levi: LeviType, E: np.ndarray, t: int
) -> int | tuple[np.ndarray, int]:
    """The flags through a state E = E_t of _enumerate (rows spanning it,
    isotropic, of dimension d = p_1 + ... + p_t; E_0 = 0) when the peel
    decides them, else the state's start E + e^(s-1)(E^perp), the forced
    subspace of its next level (_enumerate), and the start's dimension.
    The rest of such a flag lies in E^perp, as E_k does, and is a flag of
    the induced e' on V' = E^perp/E for the Levi (p_{t+1}, ..., p_k; q):
    isotropy carries over, e(E_i) <= E_{i-1} iff e' lowers E_i/E into
    E_{i-1}/E, and e(E_k^perp) <= E_k iff e' maps (E_k/E)^perp = E_k^perp/E
    into E_k/E.  So the count is the peel's (_peel) for the Jordan type of
    e' and those steps, in closed form (_shape_count) from the
    discriminants disc(a) of e'.

    At E = 0, V' = V: the Jordan type is real's partition, disc is real's,
    and the start is im e^(s-1), the Jordan coordinates of height >= s - 1
    (_heights), all with no elimination.  Otherwise all of them come from
    products on a basis Q of E^perp, one nullspace of E g.  G_a =
    Q g e^a Q^T is the form <x, e^a y> on E^perp.  E lies in its radical,
    so rank G_a = rank e'^a.  V' must carry a nondegenerate form, rank G_0
    = dim V' = n - 2d, else InvariantError names the clause below that
    failed.  For nondegenerate g, rank G_0 = (n - r) - dim(E cap E^perp)
    with r = rank E, and every state _enumerate passes has exactly d
    independent rows, so rank G_0 = n - 2d exactly when r = d and E is
    isotropic.  So no rank of G_0 is taken: the check is det g != 0 mod p
    (disc(0)), r = n - (rows of Q) = d, and E g E^T = 0 mod p, one small
    product on the E g at hand.  Where r > d, or g is degenerate (only a
    realization changed by replace), it raises wherever rank G_0 != n - 2d
    would, and more.

    With s = 2(k - t) + [q > 0], G_s != 0 leaves a part of e' above s,
    which no flag allows, so the count is 0.  With two or more levels
    left, G_{s-1} = 0 != G_1 says that no part is s and not every part is
    1, where the peel does not decide: the start is E itself, with no rank
    taken.  Otherwise the ranks r_a = rank G_a, with r_0 = n - 2d and r_s =
    0, give m_j = r_{j-1} - 2 r_j + r_{j+1} parts j of e', and disc(a) is
    read from G_a on the pivots that the ranks found, and is (-1)^d det g
    at a = 0, as E + E* adds d hyperbolic planes.  A start left there is E
    plus e^(s-1) x for the rows x of Q at the pivots of G_{s-1}, of
    dimension d + r_{s-1}: G_{s-1} is symmetric or alternating, so those
    rows of it are independent, and so are those e^(s-1) x modulo E."""
    steps, q = levi.ps[t:], levi.q
    s = 2 * len(steps) + (q > 0)
    if not t:
        value = _shape_count(real, _peel(real.partition.parts, steps, q), real.disc)
        if value is not None:
            return value
        top = [c for c, h in enumerate(_heights(real.partition)) if h >= s - 1]
        return np.eye(real.dim, dtype=np.int64)[top], len(top)
    p, g, e = real.modulus, real.gram, real.e
    d = sum(levi.ps[:t])
    Eg = E @ g % p
    Q = nullspace(Eg, p)
    r = real.dim - Q.shape[0]  # rank E g, which is rank E when det g != 0
    pairing = Eg @ E.T % p
    failed = ""
    if not real.disc(0):
        failed = f"det g = 0 mod {p}"
    elif r != d:
        failed = f"rank E = {r}, expected {d}"
    elif pairing.any():
        i, j = np.argwhere(pairing)[0]
        failed = f"<E_{i}, E_{j}> = {pairing[i, j]} mod {p}, expected 0"
    if failed:
        raise InvariantError(
            f"the form is degenerate on E^perp/E ({real.partition}, {levi}, p={p}): {failed}"
        )
    Qg, grams = Q @ g % p, []  # G_1, .., G_s
    for _ in range(s):
        Qg = Qg @ e % p
        grams.append(Qg @ Q.T % p)
    if grams[-1].any():  # a part of e' exceeds s
        return 0
    if len(steps) > 1 and grams[0].any() and not grams[-2].any():  # no part is s, not all are 1
        return E, d
    pivots = [rref(G, p)[1] for G in grams[:-1]] + [[]]  # G_s = 0
    ranks = [real.dim - 2 * d] + [len(x) for x in pivots] + [0]
    parts = tuple(j for j in range(s, 0, -1) for _ in range(ranks[j - 1] - 2 * ranks[j] + ranks[j + 1]))

    def disc(a: int) -> int:
        return (-1) ** d * real.disc(0) if not a else _discriminant(grams[a - 1], p, pivots[a - 1])

    value = _shape_count(real, _peel(parts, steps, q), disc)
    if value is not None:
        return value
    top = Q[pivots[-2]]  # e^(s-1) of these rows spans the start modulo E
    for _ in range(s - 1):
        top = top @ e.T % p
    return np.vstack([E, top]), d + top.shape[0]


def fiber_point_count(
    real: JordanRealization, levi: LeviType, budget: int | None = None
) -> FlagCount:
    """Count isotropic chains E_1 < ... < E_k with dim E_i = p_1 + ... + p_i,
    e(E_1) = 0, e(E_i) <= E_{i-1}, and e(E_k^perp) <= E_k.

    Every such chain contains the forced subspaces L_i = im e^(s-i), with
    s = 2k + [q > 0] (see _enumerate), so the count is 0 when a part
    exceeds s.  The peel (_peel) then takes off the m Jordan chains of
    length s, which span V_s; the other chains span W, and V_s perp W in
    realize's basis.  Every counted flag splits as
        E_i = (L_i cap V_s) + (E_i cap W),
    because ker e^i is the sum of its parts on the chains and
        L_i cap V_s <= E_i cap V_s <= ker e^i cap V_s = L_i cap V_s.
    The V_s parts meet every condition, as s <= 2k + 1, so the count is
    the count for e on W and the Levi (p_1 - m, ..., p_k - m; q - m [q > 0]):
    a negative step or q leaves no flag, and a zero step merges two levels.
    The peel repeats until a part exceeds s (the count is 0), only parts 1
    remain, or no part equals s.  In the last case one level (r; q) has
    q > 0 (q = 0 gives s = 2), so s = 3 and the parts left are 2 and 1.
    These two shapes, only parts 1 and one level over parts 2 and 1, are
    counted in closed form (_shape_count, _flag_sum).  With two or more
    levels left the flags are enumerated level by level (_enumerate), and
    the flags through each state E_t are counted the same way, on
    E_t^perp/E_t, wherever the peel decides them (_state_count): the root
    is its case E_0 = 0, and a state with one level left is always decided.
    A state it leaves starts its next level from its own forced subspace,
    the L_1 of e' on E_t^perp/E_t.

    Only parts 1: e = 0 on their span V_1, of dimension m_1, and the flags
    are the isotropic flags of V_1 with cumulative dimensions
    c_1 < ... < c_k, which N_1(c_k) [c_k; c_1, c_2 - c_1, ...]_p counts
    (Bruhat decomposition; Taylor, The Geometry of the Classical Groups).
    Here N_1 is N for V_1's form, and
        N(r) = prod_{i<r} iso(m - 2i) / prod_{j<=r} (p^j - 1)
    counts the isotropic r-subspaces of a nondegenerate form on F_p^m,
    with iso(m) its nonzero isotropic vectors (_isotropic_vectors).

    One level over parts 2 and 1: V_2 perp V_1 for the spans of the m_2
    chains of length 2 and the m_1 of length 1, U = e(V) = e(V_2) has
    dimension m_2, and ker e = U + V_1.  The form b(u, v) = <e^-1 u, v> on
    U is well defined, as <ker e, im e> = 0, and nondegenerate, as
    (im e)^perp = ker e; b(ev, ew) = <v, ew> = -eps b(ew, ev), so b is
    alternating for B and D and symmetric for C.  A counted E lies in
    ker e; with F = E cap U and E' its projection to V_1, E is F plus the
    graph of a map E' -> U/F.  U is isotropic and orthogonal to V_1, so E
    is isotropic exactly when E' is.  And e(E^perp) = e(F^perp) =
    F^perp_b: E^perp <= F^perp, and a v in F^perp pairs with E through E'
    alone, so a vector of V_1, whose form is nondegenerate, moves v into
    E^perp without changing ev.  So e(E^perp) <= E, that is <= F, exactly
    when F is b-coisotropic: f = dim F >= m_2 / 2 and F^perp_b is an
    isotropic (m_2 - f)-subspace of b.  Summing over f,
        sum_{f = ceil(m_2/2)}^{min(m_2, r)} N_b(m_2 - f) N_1(r - f) p^((r - f)(m_2 - f)),
    which is N_1(r) when m_2 = 0.  Whether a symmetric V_1 or b of even
    dimension is split is read from the discriminants of the forms
    <x, e^a y> with Gram matrix g e^a (_shape_count), never from the
    descriptor: det g at a = 0, else one rref and one det of g e^a, at
    the root once per realization (JordanRealization.disc).

    A check costs one node when the root's peel decides it, max(1, the
    nodes _enumerate charges) otherwise, and none without a general-linear
    block.  A check whose total would exceed the budget returns an explicit
    skip with ``nodes == budget + 1``, never a wrong count; at budget 0 a
    check with a general-linear block returns it at once (precharged_skip).
    """
    if levi.family is not real.family or levi.n != real.dim:
        raise ValueError(f"{levi} does not match a realization of size {real.dim}")
    cap = resolve_budget(budget)
    skip = precharged_skip(levi, real.modulus, cap)
    return skip if skip is not None else _enumerate(real, levi, cap)


def _levels(real: JordanRealization, levi: LeviType) -> list[list[int] | None]:
    """_enumerate's table for a check that the root's peel leaves: per
    level t + 1 < k, the Jordan coordinates outside im e^a for its cut a
    (_cut), or None where it leaves no flag.  First the identities that
    the enumeration's starts and windows rest on, g^T = eps g and e^T g +
    g e = 0 mod p, are checked by two products, and a failure raises
    InvariantError."""
    p, e, g = real.modulus, real.e, real.gram
    for failed, residue in (("g^T != eps g", g.T - real.family.epsilon * g),
                            ("e^T g + g e != 0", e.T @ g + g @ e)):
        if (residue % p).any():
            raise InvariantError(
                f"the form is not e-invariant ({real.partition}, {levi}, p={p}): {failed} mod {p}"
            )
    heights, dims = _heights(real.partition), list(itertools.accumulate(levi.ps))
    cuts = (_cut(_floors(real.partition, levi, t), dims[t]) for t in range(len(dims) - 1))
    return [None if a is None else [c for c, h in enumerate(heights) if h < a] for a in cuts]


def _enumerate(real: JordanRealization, levi: LeviType, cap: int) -> FlagCount:
    """fiber_point_count as one recursion over the states E = E_t (rows
    spanning E_t; E_0 = 0), at most ``cap`` nodes.  Each state is first
    counted on E^perp/E (_state_count), where the peel may decide it: at
    the root that is fiber_point_count's peel, and with one level left it
    always decides.  Only the levels t + 1 < k of the states it leaves are
    enumerated.

    Every counted chain contains the forced subspaces L_i = im e^(s-i), with
    s = 2k + 1, or s = 2k when q = 0:
      E_i <= ker e^i by induction, so E_k^perp >= (ker e^k)^perp = im e^k;
      then e(E_k^perp) <= E_k gives E_k >= im e^(k+1), and when q = 0,
      E_k = E_k^perp already gives E_k >= im e^k: that is L_k;
      and e(E_i) <= E_{i-1} carries it down: E_{i-1} >= e(L_i) = L_{i-1}.
    So L_1 <= E_1 <= ker e needs e^s = 0, that is max part <= s, else the
    root's peel counts 0.  Below a state E_t the flag is one of e' on
    E_t^perp/E_t (_state_count), so the same argument there, with s_t =
    2(k - t) + [q > 0], puts E_{t+1} above the state's own forced
    subspace, its start E_t + e^(s_t - 1)(E_t^perp) (L_1 at the root),
    which contains E_t + L_{t+1}, as E_t^perp >= im e^t.  It is isotropic,
    as e'^(s_t) = 0 and 2(s_t - 1) >= s_t, and orthogonal to the level's
    window W = E_t^perp cap e^{-1}(E_t), as W/E_t lies in ker e' = (im
    e'^(s_t - 1))^perp.  Both rest on g^T = eps g and e^T g + g e = 0 mod
    p, which realize checks but replace may break, so _levels checks them
    by two products before the first level, and a failure raises
    InvariantError.

    One floor table cuts the windows.  The flags below E_t are flags of
    the induced e' on E_t^perp/E_t, of dimension N' = n - 2 dim E_t, for the
    Levi (p_{t+1}, ..., p_k; q), and e' lowers the chain E'_{t+1} < ... <
    E'_k^perp strictly.  On that nilradical rank x^a is at most N' - S_a,
    S_a the sum of the a largest steps among p_{t+1}, ..., p_k, q, p_k, ...,
    p_{t+1}, as rank is lower semicontinuous.  And rank e'^a >= rank e^a -
    2 dim(E_t cap im e^a), since dim e^a(E_t^perp) = rank e^a - dim(E_t cap
    im e^a) and e^a(E_t^perp) meets E_t inside E_t cap im e^a.  So every
    counted flag has dim(E_t cap im e^a) >= m_{t,a} = ceil(dim E_t -
    slack_a / 2), slack_a = n - rank e^a - S_a (_floors): a table of
    (partition, Levi) alone, built once per check.  When m_{t,a} = dim E_t,
    all of E_t lies in im e^a, which is spanned by the Jordan coordinates
    x(i,j) of height d_j - i >= a.  For the largest such a (_cut), the
    window of a level is cut to im e^a by one nullspace of its columns at
    heights < a.  A floor above dim E_{t+1}, or a start with an entry at
    heights < a, counts 0, before anything else is done at the level.

    A start whose dimension is dim E_{t+1} is E_{t+1}: the level is filled
    at one node.  Any other start is enumerated, one that overfills too: no
    flag goes through it, and _last_row_batches yields nothing for it.  Its
    window takes two eliminations, as e^{-1}(E) = (ann(E) e)^perp: one
    nullspace of E gives ann(E), and one of [E g; ann(E) e] the window.
    After the cut, _last_row_batches adds one reduced-echelon row at a
    time to the start and drops each candidate row as soon as it fails
    isotropy, and the recursion goes into each E_{t+1} = F1 + <x> that it
    yields.

    A node is one candidate row generated and tested, one level filled by
    its start, or one state E_t, t >= 1, that its quotient decides with a
    count that is not 0, each charged by the state that spends it; a level
    that the table ends or cuts away costs none.  A check with a
    general-linear block costs at least one node, one without none.  A
    check whose total would exceed the cap returns an explicit skip with
    ``nodes == cap + 1``, never a wrong count.
    """
    p, e, g = real.modulus, real.e, real.gram
    dims = list(itertools.accumulate(levi.ps))
    counter, levels = [0], None  # levels: _levels, once the root is not decided

    def count(E: np.ndarray, t: int) -> int:
        """The flags over E = E_t (rows spanning it) from the level after
        it on, E_{t+1} of dimension dims[t] first."""
        nonlocal levels
        value = _state_count(real, levi, E, t)
        if not isinstance(value, tuple):
            if t:  # a decided root costs the check's one node (below)
                _charge(counter, bool(value), cap)
            return value
        levels = levels or _levels(real, levi)
        start, size = value
        low = levels[t]  # the coordinates outside im e^a, at the level's cut a
        if low is None or start[:, low].any():
            return 0
        if size == dims[t]:
            _charge(counter, 1, cap)
            return count(start, t + 1)
        # The window E^perp cap e^{-1}(E), as e^{-1}(E) = (ann(E) e)^perp.
        window = nullspace(np.vstack([E @ g % p, nullspace(E, p) @ e % p]), p)
        if low:  # cut it to im e^a
            window = nullspace(window[:, low].T, p) @ window % p
        batches = _last_row_batches(start, window, dims[t], g, p, counter, cap)
        return sum(count(np.vstack([F1, x]), t + 1) for F1, X in batches for x in X)

    try:
        value = count(np.zeros((0, real.dim), dtype=np.int64), 0)
    except BudgetExceeded:
        return FlagCount(None, p, levi, counter[0], skipped="budget")
    finally:  # count refers to itself: free it without the cyclic collector
        del count
    return FlagCount(value, p, levi, max(1 if levi.ps else 0, counter[0]))
