"""Independent verification over prime fields: build the nilpotent element
and its invariant bilinear form on an explicit Jordan basis, then count
isotropic flags satisfying the nilradical conditions.  Within budget the
count must equal the descriptor E-polynomial at the field size.

The Jordan basis is x(i,j) for part j of size d_j, 1 <= i <= d_j, with
e x(i,j) = x(i-1,j).  The form pairs x(i,j) against x(d_j+1-i, beta(j)),
where beta pairs equal parts of the family's held parity (Family.held_parity,
whose parts come in pairs) and fixes parts of the other, self-paired,
parity; entries along a block alternate in sign, which is exactly what
e-invariance forces.

The unit in front of each self-paired block is chosen so the form is split:
units inside one value group alternate (hyperbolic pairs), and the leftover
unit of each odd-multiplicity group walks down the chain of such groups
picking up a factor (-1)^((v_prev - v_next)/2 + 1) per hop, starting at +1
for the largest value.

This layout, pairing and these units have one home, the orbit's table of
chains (_chains), read from its partition alone: the model (_model), the
root's discriminants (_root_disc) and the root's first window
(_root_window) all read it.  The model is integer data, built over Z once
per orbit and checked once (_check_model), which a prime's realization
reduces at its first array read (realize); a count that the root decides
makes none.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from types import MappingProxyType

from ._linalg import det, np, nullspace, rref
from .errors import InvariantError
from .levi import LeviType
from .partitions import Family, Partition, is_valid

DEFAULT_BUDGET = 1_000_000
# Candidate rows generated and tested per numpy product; keeps memory flat.
_BATCH = 1024
_INT64_LIMIT = 2**63


def resolve_budget(budget: int | None = None) -> int:
    """``budget``, else DEFAULT_BUDGET.  A negative budget is a ValueError."""
    if budget is None:
        return DEFAULT_BUDGET
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
    def det(self) -> int:
        """det g over Z: g has one entry +-1 in each row and column
        (_check_model), so det g is the sign of that permutation,
        (-1)^inversions, times the product of the entries."""
        columns = [j for _, j in sorted(self.gram)]
        inversions = sum(a > b for a, b in itertools.combinations(columns, 2))
        return (-1) ** inversions * math.prod(self.gram.values())

    def reduce(self, modulus: int) -> list[np.ndarray]:
        """e and g mod ``modulus``, as fresh n-by-n int64 arrays."""
        out = []
        for entries in (self.e, self.gram):
            dense = np.zeros((self.partition.n,) * 2, dtype=np.int64)
            for key, v in entries.items():
                dense[key] = v % modulus
            out.append(dense)
        return out


@dataclass(frozen=True, eq=False)
class JordanRealization:
    """A nilpotent matrix e in Jordan form with a split invariant form g over
    F_p, immutable: a changed one is a new one (dataclasses.replace).  Its
    read-only arrays e and gram are built at the first read of either
    (__getattr__): e is the orbit's model (_model) reduced mod p, and gram
    is the ``form`` given, or else the model's g reduced too and checked
    (_validate).  One without a given form (modelled, as realize builds
    them) has its root read from the partition alone (_root_disc); one
    given a form is counted from the arrays, discriminants by elimination."""

    family: Family
    partition: Partition
    modulus: int
    form: np.ndarray | None = None

    def __getattr__(self, name: str) -> np.ndarray:
        if name not in ("e", "gram"):
            raise AttributeError(name)
        e, gram = _model(self.partition, self.family).reduce(self.modulus)
        if self.form is not None:
            gram = self.form
        for array in (e, gram):
            array.flags.writeable = False
        vars(self).update(e=e, gram=gram)
        if self.form is None:
            _validate(self)
        return vars(self)[name]

    @property
    def dim(self) -> int:
        return self.partition.n

    @functools.cached_property
    def det_g(self) -> int:
        """det g mod p: the model's det over Z when modelled, else by elimination."""
        if self.form is None:
            return _model(self.partition, self.family).det % self.modulus
        return det(self.gram, self.modulus)


@functools.lru_cache(maxsize=None)
def _chains(p: Partition, family: Family) -> tuple[tuple[int, int, int, int], ...]:
    """realize's Jordan chains for the orbit ``p``, the one home of the
    module docstring's layout, pairing and units: per part j, (s_j, d_j,
    beta(j), u_j), with x(i,j) at coordinate s_j + i - 1, d_j the part,
    beta(j) its partner (j when self-paired) and u_j the unit in front of a
    self-paired block (0 for a paired one, which carries the fixed
    cross-block pairing instead).  It reads only the partition, once per
    argument per process (lru_cache)."""
    parts = p.parts
    beta, units = list(range(len(parts))), [0] * len(parts)
    delta, last = 1, None  # the chain of leftover units, down from the largest value
    for v in sorted(set(parts), reverse=True):
        js = [j for j, x in enumerate(parts) if x == v]
        if family.needs_even_multiplicity(v):
            if len(js) % 2:
                raise InvariantError(f"paired-parity value {v} with odd multiplicity in {p}")
            for a, b in zip(js[0::2], js[1::2]):
                beta[a], beta[b] = b, a
            continue
        for t, j in enumerate(js):
            units[j] = (-1) ** t
        if len(js) % 2:
            if last is not None:
                delta *= (-1) ** ((last - v) // 2 + 1)
            units[js[-1]], last = delta, v
    starts = itertools.accumulate(parts, initial=0)
    return tuple(zip(starts, parts, beta, units))


@functools.lru_cache(maxsize=None)
def _root_disc(p: Partition, family: Family, a: int) -> int:
    """disc(a) of realize's form for the orbit ``p`` as +-1 over Z, by
    _shape_count's chain rule on its chains (_chains): det g at a = 0."""
    disc = 1
    for j, (_, d, b, u) in enumerate(_chains(p, family)):
        if d > a and u:
            disc *= (-1) ** (a * (d - a)) * u ** (d - a)
        elif d > a and b > j:
            disc *= (family.epsilon * (-1) ** (a + 1)) ** (d - a)
    return disc


@functools.lru_cache(maxsize=None)
def _model(p: Partition, family: Family) -> JordanModel:
    """The integer model of realize for the orbit ``p`` of ``family``, from
    its chains (_chains), built and checked over Z (_check_model) once per
    orbit, at its first array read.  The cache holds index maps, not dense
    arrays."""
    chains, eps, gram = _chains(p, family), family.epsilon, {}
    e = {(s + i - 1, s + i): 1 for s, d, _, _ in chains for i in range(1, d)}
    for j, (s, d, b, u) in enumerate(chains):
        t = chains[b][0]  # the partner's first coordinate
        for i in range(1, d + 1):
            sign = (-1) ** (i - 1)
            if u:
                gram[s + i - 1, t + d - i] = u * sign
            elif b > j:
                gram[s + i - 1, t + d - i] = sign
                gram[t + d - i, s + i - 1] = eps * sign
    model = JordanModel(family, p, MappingProxyType(e), MappingProxyType(gram))
    _check_model(model)
    return model


def _check_model(model: JordanModel) -> None:
    """The checks of realize that no prime enters, run once per orbit and
    exactly over Z, on the entries that _model lays out from the chains
    (_chains): g^T = eps g; e is a 0/1 partial permutation; the form is
    e-invariant, e^T g + g e = 0; g has one entry +-1 in each row and
    column, which JordanModel.det reads; and rank e^k = sum max(d - k, 0)
    over the parts d, for every k until it is 0.  The first and third are
    identities of integer matrices, so they hold mod every prime, and so
    does the fourth, as p is odd.  A power of a 0/1 partial permutation is
    one too, and its rank over any field is its number of entries 1, so
    the ranks hold mod every prime as well.  The third and the last check
    read e as the partial permutation that the second one proves: e x_c =
    x_r for each entry (r, c).  That a D form is split is checked per
    prime, on det g (_validate)."""

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
    n = model.partition.n
    require(set(g.values()) <= {1, -1} and len(g) == n and all(len(set(x)) == n for x in zip(*g)),
            "g is not a signed permutation")
    down = {c: r for r, c in ones}
    image = down  # e^k x_c for each c that e^k does not kill, from k = 1 on
    for k in itertools.count(1):
        expected = sum(max(d - k, 0) for d in model.partition.parts)
        require(len(image) == expected, f"rank of e^{k} is not {expected}")
        if expected == 0:
            break
        image = {c: down[r] for c, r in image.items() if r in down}


# realize's validity check, once per (partition, family).
_is_valid = functools.lru_cache(maxsize=None)(is_valid)


def realize(p: Partition, family: Family, modulus: int) -> JordanRealization:
    """Nilpotent element of Jordan type ``p`` with a split invariant form
    over F_modulus.  Only odd prime moduli are accepted.  The rest waits for
    the first read of e or gram (JordanRealization), which a check that the
    root decides never makes: the orbit's integer model (_model), checked
    over Z once per orbit, is then reduced into fresh arrays, and the
    checks that depend on the prime run on them (_validate)."""
    if not _is_valid(p, family):
        raise ValueError(f"{p} is not valid for family {family.value}")
    check_modulus(modulus, p.n)
    return JordanRealization(family, p, modulus)


def _validate(real: JordanRealization) -> None:
    """The checks of realize that depend on the prime p, run on the arrays
    that realize's model reduces to: g^T = eps g mod p, det g != 0 mod p, and
    for D that the form is split, (-1)^(n/2) det g a square mod p.  The other
    checks are identities over Z, made once per orbit on the model
    (_check_model), and hold mod every prime: g^T = eps g over Z gives it
    mod p too, but it is checked here again, on the arrays the counts read."""
    p, g = real.modulus, real.gram

    def require(ok, what: str) -> None:
        if not ok:
            raise InvariantError(f"{what} ({real.family.value}, {real.partition}, p={p})")

    require(not ((g.T - real.family.epsilon * g) % p).any(), "form symmetry broken")
    det_g = real.det_g
    require(det_g, "form is degenerate")
    if real.family is Family.D:
        require(_is_square((-1) ** (real.dim // 2) * det_g, p), "even orthogonal form is not split")


@dataclass(frozen=True)
class FlagCount:
    """Result of one fiber count: either an exact count or an explicit skip.
    The count (when there is one) and the node total are ints and not
    bools, so that no comparison takes True for 1."""

    count: int | None
    modulus: int
    levi: LeviType
    nodes: int
    skipped: str | None = None

    def __post_init__(self) -> None:
        for name in ("nodes",) if self.count is None else ("count", "nodes"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"FlagCount {name} {value!r} is not an int")


def _cut(p: Partition, levi: LeviType, t: int) -> int | None:
    """The cut of fiber_point_count's level t + 1: the largest a = 1 ..
    max(p) - 1 with 0 <= slack_a <= 1, which puts all of E_{t+1} in im e^a
    (0 for none), or None when some slack_a < 0, which leaves no flag.  Here
    slack_a = dim ker e^a - S_a, and S_a is the sum of the a largest steps
    of the chain p_{t+2}, ..., p_k, q, p_k, ..., p_{t+2} left below E_{t+1}.
    It reads only the parts of p and the steps of levi."""
    parts = p.parts
    steps = sorted(levi.ps[t + 1 :] * 2 + (levi.q,) + (0,) * parts[0], reverse=True)
    cut, kernel, j = 0, 0, len(parts)
    for a, top in zip(range(1, parts[0]), itertools.accumulate(steps)):
        while parts[j - 1] < a:  # j = the number of parts >= a
            j -= 1
        kernel += j  # dim ker e^a
        if kernel < top:
            return None
        if kernel - top <= 1:
            cut = a
    return cut


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


def _heights(p: Partition, family: Family) -> list[int]:
    """The heights d_j - i of realize's Jordan basis x(i,j), in coordinate
    order, read off its chains (_chains): im e^a is spanned by the x(i,j)
    of height >= a."""
    return [d - i for _, d, _, _ in _chains(p, family) for i in range(1, d + 1)]


def _root_window(p: Partition, family: Family, a: int) -> np.ndarray:
    """ker e cap im e^a for realize's e of Jordan type ``p``, the window of
    level 1 below a modelled root cut at a: the identity rows at the first
    coordinate s_j of each chain (_chains) with d_j > a, in coordinate
    order.  ker e is spanned by the x(1,j), of height d_j - 1, so this is
    the reduced basis that the nullspaces of fiber_point_count's other
    windows return for it, built with no elimination."""
    heads = [s for s, d, _, _ in _chains(p, family) if d > a]
    return np.eye(p.n, dtype=np.int64)[heads]


@functools.lru_cache(maxsize=None)
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
    are enumerated.  So a peel with one level, or none, always decides.
    Computed once per argument per process (lru_cache)."""
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


@functools.lru_cache(maxsize=None)
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
    which matters only for an even dimension.  Computed once per argument
    per process (lru_cache)."""
    r = sum(steps)
    total = sum(
        _isotropic_subspaces(twos, twos - f, p, not symplectic, split)
        * _isotropic_subspaces(ones, r - f, p, symplectic, split)
        * p ** ((r - f) * (twos - f))
        for f in range((twos + 1) // 2, min(twos, r) + 1)
    )
    return total * (_gl_factorial(r, p) // math.prod(_gl_factorial(x, p) for x in steps))


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
    real: JordanRealization, levi: LeviType, E: np.ndarray | None, t: int, reading: tuple | None = None
) -> int | tuple[np.ndarray, int]:
    """The flags through a state E = E_t of fiber_point_count (rows
    spanning it, isotropic, of dimension d = p_1 + ... + p_t; E_0 = 0, None
    if modelled or read in its batch) when the peel decides them, else the
    state's start E + e^(s-1)(E^perp), the forced subspace of its next
    level, and its dimension.  The rest of such a flag lies in
    E^perp, as E_k does, and is a flag of the induced e' on V' =
    E^perp/E for the Levi (p_{t+1}, ..., p_k; q): isotropy carries over,
    e(E_i) <= E_{i-1} iff e' lowers E_i/E into E_{i-1}/E, and e(E_k^perp)
    <= E_k iff e' maps (E_k/E)^perp = E_k^perp/E into E_k/E.  So the count
    is the peel's (_peel) for the Jordan type of e' and those steps, in
    closed form (_shape_count) from the discriminants disc(a) of e'.

    This is the one place where a state becomes its count or its start.
    What it needs of e' is the state's reading, three callables on the
    form G_a = <x, e^a y> on E^perp, whose radical holds E: rank(a) = rank
    G_a = rank e'^a for 0 < a <= s = 2(k - t) + [q > 0], disc(a), the det
    of the nondegenerate part of G_a, for a >= 0, and start(), which builds
    the start only when it is called.  A reading comes from one of three
    places.  At E = 0 of a modelled realization, V' = V: the Jordan type
    is real's partition, disc is _root_disc, and the start is im e^(s-1),
    the Jordan coordinates of height >= s - 1 (_heights), none of which
    reads an array.  A batch of siblings whose shared rows are Jordan
    coordinates is read from the orbit's signed maps (_siblings), which
    hands its readings in as ``reading``.  Every other state is read by
    elimination (_elimination_reading).

    rank(s) is read first, and only for whether G_s != 0, which leaves a
    part of e' above s, so that no flag goes through E: 0.  Otherwise the
    ranks r_a, with r_0 = n - 2d and r_s = 0, give m_j = r_{j-1} - 2 r_j +
    r_{j+1} parts j of e'.  The root reads its partition as it is."""
    steps, q = levi.ps[t:], levi.q
    s = 2 * len(steps) + (q > 0)
    if not t and real.form is None:
        parts, disc = real.partition.parts, functools.partial(_root_disc, real.partition, real.family)

        def start() -> tuple[np.ndarray, int]:
            top = [c for c, h in enumerate(_heights(real.partition, real.family)) if h >= s - 1]
            return np.eye(real.dim, dtype=np.int64)[top], len(top)
    else:
        d = sum(levi.ps[:t])
        rank, disc, start = reading or _elimination_reading(real, levi, E, d, s)
        if rank(s):  # a part of e' exceeds s
            return 0
        ranks = [real.dim - 2 * d] + [rank(a) for a in range(1, s)] + [0, 0]
        parts = tuple(j for j in range(s, 0, -1) for _ in range(ranks[j - 1] - 2 * ranks[j] + ranks[j + 1]))
    value = _shape_count(real, _peel(parts, steps, q), disc)
    return start() if value is None else value


def _elimination_reading(real: JordanRealization, levi: LeviType, E: np.ndarray, d: int, s: int) -> tuple:
    """_state_count's reading of a state E of dimension d, s as there, by
    elimination: products on a basis Q of E^perp, one nullspace of E g,
    give G_a = Q g e^a Q^T for 0 < a <= s.  rank(a) < s is G_a's by rref,
    on demand, and rank(s) only whether G_s != 0; disc(a) is read from G_a
    on the pivots that its rank found, as G_a's principal block there is
    nonsingular, and disc(0) is (-1)^d det g, as E + E* adds d hyperbolic
    planes.  start() is E plus e^(s-1) x for the rows x of Q at the pivots
    of G_{s-1}, of dimension d + r_{s-1}: G_{s-1} is symmetric or
    alternating, so those rows of it are independent, and so are those
    e^(s-1) x modulo E.  G_{s-1} = 0 leaves E itself, of dimension d.

    V' = E^perp/E must carry a nondegenerate form, rank G_0 = dim V' = n -
    2d, else InvariantError names the clause below that failed.  For
    nondegenerate g, rank G_0 = (n - r) - dim(E cap E^perp) with r = rank
    E, and every state fiber_point_count passes has exactly d independent
    rows, so rank G_0 = n - 2d exactly when r = d and E is isotropic.  So
    no rank of G_0 is taken: the check is det g != 0 mod p (det_g), r = n -
    (rows of Q) = d, and E g E^T = 0 mod p, one small product on the E g
    at hand.  Where r > d, or g is degenerate (only a realization changed by
    replace), it raises wherever rank G_0 != n - 2d would, and more."""
    p, g, e = real.modulus, real.gram, real.e
    Eg = E @ g % p
    Q = nullspace(Eg, p)
    r = real.dim - Q.shape[0]  # rank E g, which is rank E when det g != 0
    pairing = Eg @ E.T % p
    failed = ""
    if not real.det_g:
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

    @functools.cache
    def pivots(a: int) -> list[int]:
        return rref(grams[a - 1], p)[1]

    def disc(a: int) -> int:
        if not a:
            return (-1) ** d * real.det_g
        return det(grams[a - 1][np.ix_(pivots(a), pivots(a))], p)

    def start() -> tuple[np.ndarray, int]:
        top = Q[pivots(s - 1)]  # e^(s-1) of these rows spans the start modulo E
        for _ in range(s - 1):
            top = top @ e.T % p
        return np.vstack([E, top]), d + top.shape[0]

    return lambda a: len(pivots(a)) if a < s else grams[-1].any(), disc, start


@functools.lru_cache(maxsize=None)
def _signed_map(p: Partition, family: Family, a: int) -> Mapping[int, tuple[int, int]]:
    """g e^a of the orbit's model (_model), by row: i -> (j, v) for its
    entry v = +-1 at (i, j).  g is a signed permutation and e^a a 0/1
    partial permutation (_check_model), so g e^a is a signed partial
    permutation, with (g e^a)[i, c] = g[i, r] where e^a x_c = x_r; its
    transpose is eps (-1)^a g e^a, so its entries pair up as an involution.
    Computed once per argument per process, over Z."""
    model = _model(p, family)
    up = {r: c for r, c in model.e}  # e x_c = x_r
    out = {}
    for (i, c), v in model.gram.items():
        for _ in range(a):
            c = up.get(c)
            if c is None:
                break
        else:
            out[i] = c, v
    return MappingProxyType(out)


def _siblings(
    real: JordanRealization, levi: LeviType, F1: np.ndarray, X: np.ndarray, t: int
) -> list[tuple | None]:
    """_state_count's reading of each state E = F1 + <x> of level t, x a
    row of X, from the orbit's signed maps (_signed_map) with no
    elimination when the batch is read at once, and None otherwise: then
    _state_count reads E by elimination.

    The batch is read at once when realize built real and F1 is Jordan
    coordinates, rows with one nonzero entry each.  g pairs the coordinate
    c with the one coordinate j of its entry (c, j), so F1^perp is spanned
    by the coordinates that g does not pair with F1, and G_a = <x, e^a y>
    on F1^perp is g e^a on them, a signed partial permutation B with h_a
    entries, whose nondegenerate part is the principal block on its
    support S, of det prod_i B[i, i] * prod_{i < j} (-B[i, j] B[j, i]).
    E^perp is the hyperplane ker phi of F1^perp, phi = <x, .> = x g, and
    rank(B|_ker phi) = rank [[B, phi^T], [phi, 0]] - 2.  B is symmetric or
    alternating, so when phi is outside its row space, which the
    coordinates of S span, the rank stays h_a and so does the det, as a y
    in the radical with phi(y) = 1 moves the nondegenerate part into ker
    phi.  Otherwise phi = B(y, .) for y_i = phi_j B[i, j], and c = B(y, y)
    = sum of B[i, j] phi_i phi_j over the entries: c != 0 splits F1^perp
    as <y> + ker phi, so the rank is h_a - 1 and the det gains c (modulo
    squares); c = 0 puts y in the radical of B on ker phi and takes the
    hyperbolic plane of y and a w with B(y, w) = 1 out of the
    nondegenerate part, so the rank is h_a - 2 and the det gains -1.  The
    ranks and dets of G_1, .., G_s, with disc(0) = (-1)^d det g as E + E*
    adds d hyperbolic planes, are the reading.  Its start() builds the
    rows of E, and is E itself when G_{s-1} = 0, with no elimination;
    otherwise it is the start that the elimination reading of E builds
    (_elimination_reading), from one nullspace of E g and one rref of
    G_{s-1}.

    That reading needs E^perp/E to carry a nondegenerate form: det g != 0
    mod p, F1 d - 1 distinct coordinates (d = dim E), each row x outside F1
    (phi != 0 on F1^perp), and E isotropic: no coordinate of F1 paired with
    one of F1, and each x orthogonal to F1 (zero at the coordinates paired
    with it) and isotropic.  A state that fails one of these is read by
    elimination, whose check raises InvariantError naming the clause."""
    rows, coords = F1.nonzero()
    if real.form is not None or rows.tolist() != list(range(F1.shape[0])):  # not coordinates
        return [None] * X.shape[0]
    d, n, p = sum(levi.ps[:t]), real.dim, real.modulus
    g = _signed_map(real.partition, real.family, 0)
    coords = coords.tolist()
    paired = {g[c][0] for c in coords}
    if not real.det_g or len(paired) != d - 1 or not paired.isdisjoint(coords):
        return [None] * X.shape[0]
    perp = {j: (i, v) for i, (j, v) in g.items() if j not in paired}  # phi_j = x_i v on F1^perp
    s = 2 * (len(levi.ps) - t) + (levi.q > 0)
    forms = []  # per a = 1 .. s: (h_a, det, entries, coordinates of F1^perp outside S)
    for a in range(1, s + 1):
        ga = _signed_map(real.partition, real.family, a)
        entries = [(i, j, v) for i, (j, v) in ga.items() if i in perp and j in perp]
        support = {i for i, _, _ in entries}
        disc = math.prod(v if i == j else -v * ga[j][1] for i, j, v in entries if i <= j)
        forms.append((len(entries), disc, entries, [j for j in perp if j not in support]))

    def start(x: np.ndarray, grown: int) -> tuple[np.ndarray, int]:
        E = np.vstack([F1, x])
        return _elimination_reading(real, levi, E, d, s)[2]() if grown else (E, d)

    out = []
    for row, x in zip(X, X.tolist()):
        phi = [0] * n
        for j, (i, v) in perp.items():
            phi[j] = x[i] * v % p
        if any(x[j] for j in paired) or sum(f * xi for f, xi in zip(phi, x)) % p or not any(phi):
            out.append(None)  # E not isotropic, or x in F1
            continue
        ranks, discs = [0], [(-1) ** d * real.det_g]
        for h, disc, entries, free in forms:
            if any(phi[j] for j in free):  # phi outside the row space of G_a
                ranks.append(h)
                discs.append(disc)
            else:
                c = sum(v * phi[i] * phi[j] for i, j, v in entries) % p
                ranks.append(h - 2 + bool(c))
                discs.append(disc * (c or -1))
        out.append((ranks.__getitem__, discs.__getitem__, functools.partial(start, row, ranks[s - 1])))
    return out


def _levels(real: JordanRealization, levi: LeviType) -> list[tuple[int, list[int]] | None]:
    """fiber_point_count's table for a check that the root's peel leaves: per
    level t + 1 < k, its cut a (_cut) and the Jordan coordinates outside
    im e^a, or None where it leaves no flag.  First the identities that
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
    heights = _heights(real.partition, real.family)
    cuts = (_cut(real.partition, levi, t) for t in range(len(levi.ps) - 1))
    return [None if a is None else (a, [c for c, h in enumerate(heights) if h < a]) for a in cuts]


def fiber_point_count(
    real: JordanRealization, levi: LeviType, budget: int | None = None
) -> FlagCount:
    """Count isotropic chains E_1 < ... < E_k with dim E_i = p_1 + ... + p_i,
    e(E_1) = 0, e(E_i) <= E_{i-1}, and e(E_k^perp) <= E_k, in at most
    ``budget`` nodes (resolve_budget), as one recursion over the states
    E = E_t (rows spanning E_t; E_0 = 0).

    Every counted chain contains the forced subspaces L_i = im e^(s-i), with
    s = 2k + 1, or s = 2k when q = 0:
      E_i <= ker e^i by induction, so E_k^perp >= (ker e^k)^perp = im e^k;
      then e(E_k^perp) <= E_k gives E_k >= im e^(k+1), and when q = 0,
      E_k = E_k^perp already gives E_k >= im e^k: that is L_k;
      and e(E_i) <= E_{i-1} carries it down: E_{i-1} >= e(L_i) = L_{i-1}.
    So L_1 <= E_1 <= ker e needs e^s = 0: the count is 0 when a part
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
    counted in closed form (_shape_count, _flag_sum).

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
    descriptor: at realize's root from its chains' units (_root_disc),
    so a root that decides reads no array; for a batch of states whose
    shared rows are Jordan coordinates from the signed partial permutations
    g e^a (_siblings); elsewhere from g e^a by elimination
    (_elimination_reading).  Each is a state's reading, which _state_count
    alone turns into its count or its start.  _peel, _flag_sum and the
    signed maps are computed once per argument per process.

    Below a state E_t the flag is one of e' on E_t^perp/E_t (_state_count),
    for the Levi (p_{t+1}, ..., p_k; q), so each state is first counted
    there, where the peel may decide it: the root E_0 = 0 is its case, and
    a state with one level left is always decided.  Only the levels t + 1
    < k of the states it leaves are enumerated.  A modelled root is passed
    as None, and its arrays are first read by _levels, once the root has
    left a start.  The argument above, with s_t = 2(k - t) + [q > 0], puts
    E_{t+1} above the state's own forced subspace, its start E_t +
    e^(s_t - 1)(E_t^perp) (L_1 at the root), which contains E_t + L_{t+1},
    as E_t^perp >= im e^t.  It is isotropic, as e'^(s_t) = 0 and 2(s_t -
    1) >= s_t, and orthogonal to the level's window W = E_t^perp cap
    e^{-1}(E_t), as W/E_t lies in ker e' = (im e'^(s_t - 1))^perp.  Both
    rest on g^T = eps g and e^T g + g e = 0 mod p, which realize checks
    but replace may break, so _levels checks them by two products before
    the first level, and a failure raises InvariantError.

    One inequality cuts the windows.  The flags below E_t are flags of
    the induced e' on E_t^perp/E_t, of dimension N' = n - 2 dim E_t, and
    e' lowers the chain E'_{t+1} < ... < E'_k^perp strictly.  On that
    nilradical rank x^a is at most N' - S_a, S_a the sum of the a largest
    steps among p_{t+1}, ..., p_k, q, p_k, ..., p_{t+1}, as rank is lower
    semicontinuous.  And rank e'^a >= rank e^a - 2 dim(E_t cap im e^a),
    since dim e^a(E_t^perp) = rank e^a - dim(E_t cap im e^a) and
    e^a(E_t^perp) meets E_t inside E_t cap im e^a.  So every counted flag
    has 2 (dim E_t - dim(E_t cap im e^a)) <= slack_a = n - rank e^a - S_a
    = dim ker e^a - S_a.  Some slack_a < 0 leaves no flag, and 0 <= slack_a
    <= 1 puts all of E_t in im e^a, which is spanned by the Jordan
    coordinates x(i,j) of height d_j - i >= a.  The largest such a is the
    level's cut (_cut), read from (partition, Levi) alone, once per check
    (_levels), and the level's window is cut to im e^a: the nullspace that
    gives it also takes the unit rows at the heights < a (read from the
    chains below a modelled root).  A slack_a < 0 counts 0, before
    anything else is done at the level.  No flag is lost where the start
    has an entry at heights < a: every flag that the enumeration counts is
    a real flag, whose E_{t+1} holds the start and lies in im e^a, so none
    goes through such a start, and at worst nodes would be spent on it.

    A start whose dimension is dim E_{t+1} is E_{t+1}: the level is filled
    at one node.  Any other start is enumerated, one that overfills too: no
    flag goes through it, and _last_row_batches yields nothing for it.  Its
    window takes two eliminations, as e^{-1}(E) = (ann(E) e)^perp: one
    nullspace of E gives ann(E), and one of [E g; ann(E) e] and the cut's
    unit rows the window.  Below a modelled root it takes none: the window
    is ker e, cut to ker e cap im e^a, the identity rows at the x(1,j) with
    d_j > a (_root_window), which are the reduced basis those nullspaces
    return; the root's start is identity rows too.  After the cut,
    _last_row_batches adds one reduced-echelon row at a time to the start
    and drops each candidate row as soon as it fails isotropy, and the
    recursion goes into each E_{t+1} = F1 + <x> that it yields.  Where
    realize built the realization and F1 is Jordan coordinates, as below a
    modelled root, the siblings of a batch are read on their quotients at
    once, from the signed maps g e^a with no elimination (_siblings), and
    _state_count turns each reading into its count or its start; such a
    sibling's rows are built only for its start, which begins with them.
    Every other state is read by elimination (_elimination_reading).

    A node is one candidate row generated and tested, one level filled by
    its start, or one state E_t, t >= 1, that its quotient decides with a
    count that is not 0, each charged by the state that spends it; a level
    that its cut ends or cuts away costs none.  A check with a
    general-linear block costs max(1, the nodes charged), so one when the
    root's peel decides it, and one without such a block none.  A check
    whose total would exceed the budget returns an explicit skip with
    ``nodes == budget + 1``, never a wrong count; at budget 0 a check with
    a general-linear block returns it before the root.
    """
    if levi.family is not real.family or levi.n != real.dim:
        raise ValueError(f"{levi} does not match a realization of size {real.dim}")
    cap = resolve_budget(budget)
    if bool(levi.ps) > cap:
        return FlagCount(None, real.modulus, levi, cap + 1, skipped="budget")
    p, dims = real.modulus, list(itertools.accumulate(levi.ps, initial=0))
    counter, levels = [0], None  # levels: _levels, once the root is not decided

    def count(E: np.ndarray | None, t: int, reading: tuple | None = None) -> int:
        """The flags over E = E_t (rows spanning it; None for E_0 = 0 of a
        modelled realization, and for a state that its batch read) from
        the level after it on, E_{t+1} of dimension dims[t + 1] first.
        reading is E's reading when its batch read it (_siblings)."""
        nonlocal levels
        value = _state_count(real, levi, E, t, reading)
        if not isinstance(value, tuple):
            if t:  # a decided root costs the check's one node (below)
                _charge(counter, bool(value), cap)
            return value
        levels = levels or _levels(real, levi)
        start, size = value
        cut = levels[t]  # the level's cut a and the coordinates outside im e^a
        if cut is None:
            return 0
        if size == dims[t + 1]:
            _charge(counter, 1, cap)
            return count(start, t + 1)
        a, low = cut
        g = real.gram
        if not t and real.form is None:  # a modelled root: ker e cap im e^a, read from the chains
            window = _root_window(real.partition, real.family, a)
        else:  # E^perp cap e^{-1}(E) cap im e^a, as e^{-1}(E) = (ann(E) e)^perp
            E = start[: dims[t]] if E is None else E  # a start begins with the rows of its E
            units = np.eye(real.dim, dtype=np.int64)[low]  # zero at heights < a
            window = nullspace(np.vstack([E @ g % p, nullspace(E, p) @ real.e % p, units]), p)
        batches = _last_row_batches(start, window, dims[t + 1], g, p, counter, cap)
        return sum(
            count(None if reading else np.vstack([F1, x]), t + 1, reading)
            for F1, X in batches for x, reading in zip(X, _siblings(real, levi, F1, X, t + 1))
        )

    try:
        value = count(None if real.form is None else np.zeros((0, real.dim), dtype=np.int64), 0)
    except BudgetExceeded:
        return FlagCount(None, p, levi, counter[0], skipped="budget")
    finally:  # count refers to itself: free it without the cyclic collector
        del count
    return FlagCount(value, p, levi, max(1 if levi.ps else 0, counter[0]))
