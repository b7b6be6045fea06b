"""Exact verification of the surface-derivative determinant identity.

The boundary regularity argument expresses every second derivative of the
displacement on the free surface through two families of quantities that are
already controlled: tangential derivatives of first derivatives, and the
normal traction of first derivatives.  Collecting those relations gives a
square linear system whose matrix has rows that are either signed pairs of
normal components or traction combinations linear in the elastic tensor.
The system is invertible because its determinant factors exactly:

    det(system) = +/- (vertical normal component)^p * det(acoustic matrix),

with ``p = 2`` for planar films and ``p = 12`` in three dimensions, and the
acoustic matrix ``q_ih = sum_jk C_ijhk nu_j nu_k`` positive definite under
strong ellipticity.  This module rebuilds both matrices symbolically over the
integers and verifies the factorization: by complete expansion in the planar
case, and by randomized evaluation over a 61-bit prime field with a
quantified Schwartz-Zippel failure bound in 3D.

A polynomial is a dict from monomials to nonzero ints, and a monomial is a
sorted tuple of ``(variable name, exponent)`` pairs, the empty tuple for the
constant.  A matrix is a list of rows.  The variables of dimension ``N`` are
the normal components ``n1 .. nN`` and the tensor entries ``Cijhk``.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field

__all__ = ["FIELD_PRIME", "add", "mul", "degree", "value", "det", "det_mod", "build_Q", "build_M",
           "verify_identity", "IdentityReport"]

FIELD_PRIME = 2**61 - 1


def _var(name: str, coefficient: int = 1) -> dict:
    return {((name, 1),): coefficient}


def add(*polys) -> dict:
    """The sum of the polynomials."""
    out = {}
    for poly in polys:
        for m, c in poly.items():
            out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def mul(*polys) -> dict:
    """The product of the polynomials."""
    out = {(): 1}
    for poly in polys:
        product = {}
        for m1, c1 in out.items():
            for m2, c2 in poly.items():
                merged = dict(m1)
                for v, e in m2:
                    merged[v] = merged.get(v, 0) + e
                m = tuple(sorted(merged.items()))
                product[m] = product.get(m, 0) + c1 * c2
        out = {m: c for m, c in product.items() if c}
    return out


def degree(poly: dict) -> int:
    """Total degree; -1 for the zero polynomial."""
    return max((sum(e for _, e in m) for m in poly), default=-1)


def value(poly: dict, point: dict, p: int = FIELD_PRIME) -> int:
    """The value mod ``p`` at ``point``, a dict from every variable that occurs to an int."""
    total = 0
    for m, c in poly.items():
        for v, e in m:
            c = c * pow(point[v], e, p) % p
        total += c
    return total % p


def det(rows) -> dict:
    """Exact symbolic determinant by cofactor expansion along the first row.

    Zero entries are skipped, so the cost follows the sparsity of the matrix.
    Meant for small sparse systems such as the planar one; the
    three-dimensional system is checked by evaluation instead.
    """
    if len(rows) == 1:
        return rows[0][0]
    return add(*(
        mul({(): (-1) ** j}, entry, det([row[:j] + row[j + 1:] for row in rows[1:]]))
        for j, entry in enumerate(rows[0])
        if entry
    ))


def det_mod(rows, p: int = FIELD_PRIME) -> int:
    """Determinant of an integer matrix over the prime field of order ``p``."""
    a = [[int(x) % p for x in row] for row in rows]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    result = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            result = -result % p
        result = result * a[k][k] % p
        inv = pow(a[k][k], p - 2, p)
        for i in range(k + 1, n):
            if a[i][k]:
                factor = a[i][k] * inv % p
                a[i] = [(x - factor * y) % p for x, y in zip(a[i], a[k])]
    return result % p


# -- the surface-derivative system -------------------------------------------------


def _variables(N: int) -> list:
    """The variables of dimension ``N``, in the order the trials draw them."""
    if N not in (2, 3):
        raise ValueError(f"dimension must be 2 or 3, got {N}")
    r = range(1, N + 1)
    return [f"n{i}" for i in r] + [f"C{i}{j}{h}{k}" for i in r for j in r for h in r for k in r]


def build_Q(N: int) -> list:
    """The acoustic matrix ``q_ih = sum_jk C_ijhk n_j n_k``, symbolically."""
    _variables(N)  # refuses a dimension other than 2 and 3
    r = range(1, N + 1)
    return [
        [add(*(mul(_var(f"C{i}{j}{h}{k}"), _var(f"n{j}"), _var(f"n{k}")) for j in r for k in r)) for h in r]
        for i in r
    ]


def build_M(N: int) -> list:
    """The square surface-derivative system, in one row and column order for both dimensions.

    Unknown vector: the distinct second derivatives ``s_imj`` (symmetric in
    the first two indices) of each component ``j``.  Columns are grouped per
    component, ``(s11j, s12j, .., s1Nj, s22j, .., sNNj)`` for ``j = 1 .. N``:
    planar columns ``(s111, s121, s221, s112, s122, s222)``.

    Rows: first, for each component ``j``, lateral direction ``k < N`` and
    first index ``i``, the tangential relation ``s_ikj n_N - s_iNj n_k``,
    one positive vertical normal component and one negative lateral one;
    the relations with ``k < i < N`` are dropped to square the system.  Last,
    the ``N`` traction rows of the vertical-derivative field, whose entries
    ``sum_j C_ijhm n_j`` in column ``s_mNh`` are linear both in the normal
    and in the tensor.
    """
    _variables(N)  # refuses a dimension other than 2 and 3
    r = range(1, N + 1)
    pairs = [(i, m) for i in r for m in r if i <= m]
    cols = {pair + (j,): c for c, (j, pair) in enumerate((j, pair) for j in r for pair in pairs)}

    def col(i, m, j):
        return cols[(min(i, m), max(i, m), j)]

    rows = []
    for j in r:
        for k in range(1, N):
            for i in r:
                if k < i < N:
                    continue
                row = [{} for _ in cols]
                row[col(i, k, j)] = _var(f"n{N}")
                row[col(i, N, j)] = _var(f"n{k}", -1)
                rows.append(row)
    for i in r:
        row = [{} for _ in cols]
        for h in r:
            for m in r:
                row[col(m, N, h)] = add(*(mul(_var(f"C{i}{j}{h}{m}"), _var(f"n{j}")) for j in r))
        rows.append(row)
    return rows


# -- the identity -----------------------------------------------------------------


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of a determinant-identity verification."""

    dim: int
    verified: bool
    trials: int
    sign: int
    degree_bound: int
    failure_bound: float
    exact: bool
    counterexample: dict | None = field(default=None)

    def to_dict(self) -> dict:
        return asdict(self)


def _degree_bound(rows) -> int:
    """Hadamard-style total-degree bound for the determinant: sum of row maxima."""
    return sum(max(degree(e) for e in row) for row in rows)


def verify_identity(
    N: int, trials: int = 40, *, matrix: list | None = None, seed: int | None = None
) -> IdentityReport:
    """Check ``det(system) = +/- n_vertical^p * det(acoustic)`` exactly.

    Every trial draws one uniform point of the prime field for all normal
    and tensor variables and compares both exact modular determinants; the
    sign is fixed by the first decisive trial and must stay consistent.  In
    the planar case the difference is additionally expanded to the literal
    zero polynomial, making the verification deterministic.  A nonzero
    difference reports the failing assignment, since the identity can only
    fail through a construction bug.
    """
    if trials < 1:
        raise ValueError("at least one trial is required")
    names = _variables(N)
    M = matrix if matrix is not None else build_M(N)
    Q = build_Q(N)
    if {v for row in M for e in row for m in e for v, _ in m} - set(names):
        raise ValueError(f"the system names a variable outside those of dimension {N}")
    power = 2 if N == 2 else 12
    vertical = f"n{N}"

    exact = N == 2 and matrix is None
    if exact and add(det(M), mul({((vertical, power),): -1}, det(Q))):
        raise AssertionError("planar expansion failed although the construction is fixed")
    sign = 1 if exact else 0

    degree_bound = max(_degree_bound(M), power + _degree_bound(Q))
    rng = random.Random(seed)
    counterexample = None
    for _ in range(trials):
        assignment = {name: rng.randrange(FIELD_PRIME) for name in names}
        det_m = det_mod([[value(e, assignment) for e in row] for row in M])
        rhs = pow(assignment[vertical], power, FIELD_PRIME)
        rhs = rhs * det_mod([[value(e, assignment) for e in row] for row in Q]) % FIELD_PRIME
        if det_m == rhs and det_m == (-rhs) % FIELD_PRIME:
            continue  # both sides vanished; no sign information
        trial_sign = 1 if det_m == rhs else -1 if det_m == (-rhs) % FIELD_PRIME else 0
        if trial_sign == 0 or sign not in (0, trial_sign):
            counterexample = assignment
            break
        sign = trial_sign
    verified = counterexample is None
    return IdentityReport(
        dim=N,
        verified=verified,
        trials=trials,
        sign=(sign or 1) if verified else 0,
        degree_bound=degree_bound,
        failure_bound=(degree_bound / FIELD_PRIME) ** trials,
        exact=exact,
        counterexample=counterexample,
    )
