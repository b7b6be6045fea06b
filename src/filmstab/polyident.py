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
strong ellipticity.  This module rebuilds both matrices symbolically over an
exact sparse polynomial ring and verifies the factorization: by complete
expansion in the planar case, and by randomized evaluation over a 61-bit
prime field with a quantified Schwartz-Zippel failure bound in 3D.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field

__all__ = [
    "PolyRing",
    "MultiPoly",
    "PolyMatrix",
    "FIELD_PRIME",
    "build_Q",
    "build_M",
    "det_mod",
    "verify_identity",
    "IdentityReport",
]

FIELD_PRIME = 2**61 - 1


class PolyRing:
    """Multivariate polynomial ring over the integers with named variables."""

    def __init__(self, names):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be distinct")
        self.index = {name: i for i, name in enumerate(self.names)}

    def var(self, name: str) -> "MultiPoly":
        return MultiPoly(self, {((self.index[name], 1),): 1})

    def const(self, c: int) -> "MultiPoly":
        c = int(c)
        return MultiPoly(self, {(): c} if c else {})

    @property
    def zero(self) -> "MultiPoly":
        return MultiPoly(self, {})

    @property
    def one(self) -> "MultiPoly":
        return self.const(1)

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"PolyRing({len(self.names)} variables)"


def _mul_monomials(m1, m2):
    """Merge two sorted ((var, exp), ...) monomials, adding exponents."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = dict(m1)
    for v, e in m2:
        out[v] = out.get(v, 0) + e
    return tuple(sorted(out.items()))


class MultiPoly:
    """Sparse integer polynomial: monomials mapped to nonzero coefficients.

    A monomial is a sorted tuple of ``(variable index, exponent)`` pairs with
    strictly positive exponents; the empty tuple is the constant monomial.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c}

    # -- ring operations -----------------------------------------------------

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.ring != self.ring:
                raise ValueError("polynomials live in different rings")
            return other
        return self.ring.const(other)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return MultiPoly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mul_monomials(m1, m2)
                out[m] = out.get(m, 0) + c1 * c2
        return MultiPoly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not polynomial")
        result = self.ring.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except (ValueError, TypeError):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- queries ---------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self, names=None) -> int:
        """Total degree, optionally restricted to a subset of variables."""
        if self.is_zero:
            return -1
        if names is None:
            return max(sum(e for _, e in m) for m in self.terms)
        wanted = {self.ring.index[name] for name in names}
        return max(sum(e for v, e in m if v in wanted) for m in self.terms)

    def evaluate(self, assignment: dict, modulus: int | None = None) -> int:
        """Exact integer value at the assignment, reduced mod ``modulus`` if given.

        ``assignment`` maps variable names to integers and must cover every
        variable that occurs.
        """
        values = {}
        for name, val in assignment.items():
            values[self.ring.index[name]] = int(val)
        total = 0
        for m, c in self.terms.items():
            term = c
            for v, e in m:
                if modulus is None:
                    term *= values[v] ** e
                else:
                    term = term * pow(values[v], e, modulus) % modulus
            total += term
            if modulus is not None:
                total %= modulus
        return total % modulus if modulus is not None else total

    def __repr__(self):
        if self.is_zero:
            return "0"
        bits = []
        for m, c in sorted(self.terms.items()):
            factors = [str(c)] if c != 1 or not m else []
            factors += [
                self.ring.names[v] + (f"^{e}" if e > 1 else "") for v, e in m
            ]
            bits.append("*".join(factors) if factors else "1")
        return " + ".join(bits)


class PolyMatrix:
    """A square matrix of polynomials from one ring."""

    def __init__(self, ring: PolyRing, entries):
        self.ring = ring
        self.entries = [list(row) for row in entries]
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise ValueError("matrix must be square")
        for row in self.entries:
            for e in row:
                if not isinstance(e, MultiPoly) or e.ring != ring:
                    raise ValueError("entries must be polynomials from the matrix ring")

    @property
    def size(self) -> int:
        return len(self.entries)

    def __getitem__(self, idx):
        i, j = idx
        return self.entries[i][j]

    def __setitem__(self, idx, value):
        i, j = idx
        if not isinstance(value, MultiPoly) or value.ring != self.ring:
            raise ValueError("entries must be polynomials from the matrix ring")
        self.entries[i][j] = value

    def det(self) -> MultiPoly:
        """Exact symbolic determinant by cofactor expansion along the first row.

        Zero entries are skipped, so the cost follows the sparsity of the
        matrix.  Meant for small sparse systems such as the planar one; the
        three-dimensional system is checked by evaluation instead.
        """
        return _cofactor_det(self.ring, self.entries)

    def evaluate(self, assignment: dict, modulus: int | None = None):
        """Integer matrix of entry values at the assignment."""
        return [
            [e.evaluate(assignment, modulus) for e in row] for row in self.entries
        ]

    def degree_bound(self) -> int:
        """Hadamard-style total-degree bound for the determinant: sum of row maxima."""
        return sum(max(e.degree() for e in row) for row in self.entries)


def _cofactor_det(ring: PolyRing, rows) -> MultiPoly:
    if len(rows) == 1:
        return rows[0][0]
    total = ring.zero
    for j, entry in enumerate(rows[0]):
        if not entry.is_zero:
            term = entry * _cofactor_det(ring, [row[:j] + row[j + 1:] for row in rows[1:]])
            total = total + term if j % 2 == 0 else total - term
    return total


def det_mod(rows, p: int = FIELD_PRIME) -> int:
    """Determinant of an integer matrix over the prime field of order ``p``."""
    a = [[int(x) % p for x in row] for row in rows]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    det = 1
    for k in range(n):
        pivot = None
        for r in range(k, n):
            if a[r][k]:
                pivot = r
                break
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det % p
        det = det * a[k][k] % p
        inv = pow(a[k][k], p - 2, p)
        for i in range(k + 1, n):
            if a[i][k]:
                factor = a[i][k] * inv % p
                a[i] = [(x - factor * y) % p for x, y in zip(a[i], a[k])]
    return det % p


# -- the surface-derivative system -------------------------------------------------


def _ring(N: int) -> PolyRing:
    if N not in (2, 3):
        raise ValueError(f"dimension must be 2 or 3, got {N}")
    names = [f"n{i}" for i in range(1, N + 1)]
    names += [
        f"C{i}{j}{h}{k}"
        for i in range(1, N + 1)
        for j in range(1, N + 1)
        for h in range(1, N + 1)
        for k in range(1, N + 1)
    ]
    return PolyRing(names)


def build_Q(N: int) -> PolyMatrix:
    """The acoustic matrix ``q_ih = sum_jk C_ijhk n_j n_k``, symbolically."""
    ring = _ring(N)
    nu = [ring.var(f"n{i}") for i in range(1, N + 1)]
    entries = []
    for i in range(1, N + 1):
        row = []
        for h in range(1, N + 1):
            q = ring.zero
            for j in range(1, N + 1):
                for k in range(1, N + 1):
                    q = q + ring.var(f"C{i}{j}{h}{k}") * nu[j - 1] * nu[k - 1]
            row.append(q)
        entries.append(row)
    return PolyMatrix(ring, entries)


def _traction_coefficient(ring: PolyRing, N: int, i: int, h: int, m: int) -> MultiPoly:
    """Coefficient of the (m, vertical)-derivative of component ``h`` in the
    ``i``-traction of the vertical-derivative field: ``sum_j C_ijhm n_j``."""
    out = ring.zero
    for j in range(1, N + 1):
        out = out + ring.var(f"C{i}{j}{h}{m}") * ring.var(f"n{j}")
    return out


def build_M(N: int) -> PolyMatrix:
    """The square surface-derivative system, in the fixed auditable row order.

    Unknown vector: the distinct second derivatives ``s_ijk`` (symmetric in
    the first two indices), ordered with the derivative-component index
    outermost; planar columns ``(s111, s112, s121, s122, s221, s222)``,
    three-dimensional columns grouped per component as
    ``(s11*, s12*, s13*, s22*, s23*, s33*)`` for components 1, 2, 3.

    Rows: tangential-derivative relations carrying one positive vertical
    normal component and one negative lateral one, followed by the traction
    rows whose entries are linear both in the normal and in the tensor.
    """
    ring = _ring(N)
    if N == 2:
        n1, n2 = ring.var("n1"), ring.var("n2")
        zero = ring.zero
        # columns: s111 s112 s121 s122 s221 s222
        cols = [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (2, 2, 1), (2, 2, 2)]
        col_index = {c: k for k, c in enumerate(cols)}
        entries = []
        for i in (1, 2):  # traction rows of the vertical-derivative field
            row = [zero] * 6
            for h in (1, 2):
                for m in (1, 2):
                    key = tuple(sorted((m, 2))) + (h,)
                    coef = _traction_coefficient(ring, N, i, h, m)
                    row[col_index[key]] = row[col_index[key]] + coef
            entries.append(row)
        for i in (1, 2):  # tangential derivatives of each first derivative
            for j in (1, 2):
                row = [zero] * 6
                key1 = tuple(sorted((i, 1))) + (j,)
                key2 = tuple(sorted((i, 2))) + (j,)
                row[col_index[key1]] = row[col_index[key1]] + n2
                row[col_index[key2]] = row[col_index[key2]] - n1
                entries.append(row)
        return PolyMatrix(ring, entries)

    nu = {i: ring.var(f"n{i}") for i in (1, 2, 3)}
    zero = ring.zero
    pairs = [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]
    cols = [pair + (k,) for k in (1, 2, 3) for pair in pairs]
    col_index = {c: k for k, c in enumerate(cols)}

    def s_col(i, m, j):
        return col_index[tuple(sorted((i, m))) + (j,)]

    entries = []
    # tangential rows: for each component j, lateral direction k, and first
    # index i, the combination  s_ikj * n3 - s_i3j * n_k  is tangential;
    # the three relations with i = 2, k = 1 are dropped to square the system
    for j in (1, 2, 3):
        for k in (1, 2):
            for i in (1, 2, 3):
                if i == 2 and k == 1:
                    continue
                row = [zero] * 18
                row[s_col(i, k, j)] = row[s_col(i, k, j)] + nu[3]
                row[s_col(i, 3, j)] = row[s_col(i, 3, j)] - nu[k]
                entries.append(row)
    # traction rows of the vertical-derivative field
    for i in (1, 2, 3):
        row = [zero] * 18
        for h in (1, 2, 3):
            for m in (1, 2, 3):
                c = s_col(m, 3, h)
                row[c] = row[c] + _traction_coefficient(ring, N, i, h, m)
        entries.append(row)
    return PolyMatrix(ring, entries)


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


def _vertical_power(N: int) -> int:
    return 2 if N == 2 else 12


def verify_identity(
    N: int,
    trials: int = 40,
    *,
    matrix: PolyMatrix | None = None,
    seed: int | None = None,
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
    M = matrix if matrix is not None else build_M(N)
    Q = build_Q(N)
    if M.ring != Q.ring:
        raise ValueError("system and acoustic matrices must share one ring")
    power = _vertical_power(N)
    vertical = f"n{N}"

    exact = False
    sign = 0
    if N == 2 and matrix is None:
        lhs = M.det()
        rhs = M.ring.var(vertical) ** power * Q.det()
        if not (lhs - rhs).is_zero:
            raise AssertionError(
                "planar expansion failed although the construction is fixed"
            )
        exact = True
        sign = 1

    degree_bound = max(M.degree_bound(), power + Q.degree_bound())
    rng = random.Random(seed)
    names = M.ring.names
    counterexample = None
    for _ in range(trials):
        assignment = {name: rng.randrange(FIELD_PRIME) for name in names}
        det_m = det_mod(M.evaluate(assignment, FIELD_PRIME))
        rhs = pow(assignment[vertical], power, FIELD_PRIME)
        rhs = rhs * det_mod(Q.evaluate(assignment, FIELD_PRIME)) % FIELD_PRIME
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
