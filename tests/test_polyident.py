"""Tests for the exact determinant-identity verifier."""

import hashlib
import json
import random

import pytest

from filmstab.polyident import (
    FIELD_PRIME,
    add,
    build_M,
    build_Q,
    degree,
    det,
    det_mod,
    mul,
    value,
    verify_identity,
)

X, Y, Z = ({((v, 1),): 1} for v in "xyz")
ONE = {(): 1}


def neg(poly):
    return {m: -c for m, c in poly.items()}


def random_poly(rng, max_terms=4, max_exp=2, coeff=5):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        mono = tuple(sorted((v, rng.randint(1, max_exp)) for v in rng.sample("xyz", rng.randrange(1, 3))))
        terms[mono] = rng.randint(-coeff, coeff)
    return add(terms)


# -- polynomials -------------------------------------------------------------------


def test_ring_arithmetic_and_canonical_form():
    square = mul(add(X, Y), add(X, Y))
    assert square == add(mul(X, X), mul({(): 2}, X, Y), mul(Y, Y))
    assert add(square, neg(square)) == {}  # no zero coefficients stored
    assert add(X, neg(X)) == {}
    assert mul(add(X, ONE), add(X, neg(ONE))) == add(mul(X, X), neg(ONE))
    cube = mul(add(X, Y), add(X, Y), add(X, Y))
    assert cube == add(mul(X, X, X), mul({(): 3}, X, X, Y), mul({(): 3}, X, Y, Y), mul(Y, Y, Y))
    assert degree(X) == 1 and degree(mul(X, X, Y)) == 3
    assert degree({}) == -1 and add({(): 0}) == {}


def test_ring_distributivity_on_sampled_triples():
    rng = random.Random(3)
    for _ in range(25):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert mul(add(a, b), c) == add(mul(a, c), mul(b, c))
        assert mul(a, b) == mul(b, a)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))


def test_value_mod_p():
    poly = add(mul({(): 3}, X, X, Y), mul({(): -7}, Z), {(): 2})
    point = {"x": 4, "y": -3, "z": 11}
    assert value(poly, point, 97) == (3 * 16 * (-3) - 77 + 2) % 97
    assert value(poly, point) == (3 * 16 * (-3) - 77 + 2) % FIELD_PRIME


# -- determinants ------------------------------------------------------------------


def test_det_trivial_cases():
    assert det([[ONE, {}], [{}, ONE]]) == ONE
    assert det([[X, {}, {}], [{}, Y, {}], [{}, {}, Z]]) == mul(X, Y, Z)
    assert det([[X, Y], [Z, ONE]]) == add(X, neg(mul(Y, Z)))


def test_det_row_swap_antisymmetry():
    rng = random.Random(5)
    rows = [[add(random_poly(rng, max_terms=2), ONE) for _ in range(3)] for _ in range(3)]
    assert det([rows[1], rows[0], rows[2]]) == neg(det(rows))


def test_det_mod_multiplicativity_and_swap():
    rng = random.Random(11)
    p = FIELD_PRIME
    for _ in range(5):
        A = [[rng.randrange(p) for _ in range(4)] for _ in range(4)]
        B = [[rng.randrange(p) for _ in range(4)] for _ in range(4)]
        AB = [[sum(A[i][k] * B[k][j] for k in range(4)) % p for j in range(4)] for i in range(4)]
        assert det_mod(AB, p) == det_mod(A, p) * det_mod(B, p) % p
        swapped = [A[2], A[1], A[0], A[3]]
        assert det_mod(swapped, p) == (-det_mod(A, p)) % p
    assert det_mod([[1, 0], [0, 1]], p) == 1
    assert det_mod([[2, 4], [1, 2]], p) == 0


# -- the acoustic matrix --------------------------------------------------------------


def _kron(a, b):
    return 1 if a == b else 0


def isotropic_assignment(N, lam, mu, nu):
    out = {f"n{i + 1}": nu[i] for i in range(N)}
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            for h in range(1, N + 1):
                for k in range(1, N + 1):
                    out[f"C{i}{j}{h}{k}"] = lam * _kron(i, j) * _kron(h, k) + mu * (
                        _kron(i, h) * _kron(j, k) + _kron(i, k) * _kron(j, h)
                    )
    return out


def values(rows, point):
    return [[value(e, point) for e in row] for row in rows]


def test_acoustic_matrix_isotropic_vertical():
    lam, mu = 5, 3
    q3 = values(build_Q(3), isotropic_assignment(3, lam, mu, (0, 0, 1)))
    assert q3 == [[mu, 0, 0], [0, mu, 0], [0, 0, lam + 2 * mu]]
    q2 = values(build_Q(2), isotropic_assignment(2, lam, mu, (0, 1)))
    assert q2 == [[mu, 0], [0, lam + 2 * mu]]


def test_acoustic_matrix_symmetric_under_major_symmetry():
    rng = random.Random(17)
    assignment = {f"n{i}": rng.randint(-9, 9) for i in (1, 2, 3)}
    for i in range(1, 4):
        for j in range(1, 4):
            for h in range(1, 4):
                for k in range(1, 4):
                    key, mirror = f"C{i}{j}{h}{k}", f"C{h}{k}{i}{j}"
                    if mirror in assignment:
                        assignment[key] = assignment[mirror]
                    else:
                        assignment[key] = rng.randint(-9, 9)
    q = values(build_Q(3), assignment)
    for i in range(3):
        for j in range(3):
            assert q[i][j] == q[j][i]


# -- the surface-derivative system ------------------------------------------------------


def tensor_names(N):
    r = range(1, N + 1)
    return [f"C{i}{j}{h}{k}" for i in r for j in r for h in r for k in r]


def letters(monomial):
    """The first letters of a monomial's variables, once per unit of exponent, sorted."""
    return sorted(v[0] for v, e in monomial for _ in range(e))


@pytest.mark.parametrize("N, tangential", [(2, 4), (3, 15)])
def test_system_structure(N, tangential):
    M = build_M(N)
    size = N * N * (N + 1) // 2
    assert len(M) == size and all(len(row) == size for row in M)
    vertical = {((f"n{N}", 1),): 1}
    for row in M[:tangential]:  # tangential rows: +n_N and one -n_k with k < N
        entries = [e for e in row if e]
        assert len(entries) == 2
        assert vertical in entries
        assert any(e in ({((f"n{k}", 1),): -1} for k in range(1, N)) for e in entries)
    for row in M[tangential:]:  # traction rows, each entry linear in n and in C
        entries = [e for e in row if e]
        assert len(entries) == N * N
        assert all(letters(m) == ["C", "n"] for e in entries for m in e)
    assert len(M) - tangential == N


def test_vertical_normal_reduces_system_to_acoustic():
    rng = random.Random(23)
    for N in (2, 3):
        assignment = {f"n{i}": 0 for i in range(1, N + 1)}
        assignment[f"n{N}"] = 1
        for name in tensor_names(N):
            assignment[name] = rng.randrange(FIELD_PRIME)
        det_m = det_mod(values(build_M(N), assignment), FIELD_PRIME)
        det_q = det_mod(values(build_Q(N), assignment), FIELD_PRIME)
        assert det_m == det_q  # the vertical power is 1 here and the sign is +


# -- the identity -----------------------------------------------------------------------


def test_identity_2d_exact_expansion():
    report = verify_identity(2, trials=5, seed=0)
    assert report.verified and report.exact
    assert report.sign == 1
    assert report.counterexample is None
    assert report.degree_bound == 8

    # independent symbolic statement, outside verify_identity's own path
    lhs = det(build_M(2))
    assert len(lhs) == 32
    assert add(lhs, neg(mul({(("n2", 2),): 1}, det(build_Q(2))))) == {}


def test_identity_3d_randomized():
    report = verify_identity(3, trials=40, seed=1)
    assert report.verified and not report.exact
    assert report.sign == 1
    assert report.degree_bound == 21
    assert 0.0 <= report.failure_bound < 1e-15
    assert report.to_dict()["trials"] == 40


def test_identity_seed_reproducibility():
    a = verify_identity(3, trials=3, seed=42)
    b = verify_identity(3, trials=3, seed=42)
    assert a == b


def test_mutation_detected_within_three_trials():
    # entries in shared columns change the determinant genuinely
    for r, c in [(1, 2), (16, 10)]:
        bad = build_M(3)
        bad[r][c] = neg(bad[r][c])
        report = verify_identity(3, trials=3, matrix=bad, seed=7)
        assert not report.verified
        assert report.counterexample is not None
        # the counterexample honestly violates the signed identity
        ctrex = report.counterexample
        det_m = det_mod(values(bad, ctrex), FIELD_PRIME)
        rhs = pow(ctrex["n3"], 12, FIELD_PRIME) * det_mod(values(build_Q(3), ctrex), FIELD_PRIME) % FIELD_PRIME
        assert det_m != rhs and det_m != (-rhs) % FIELD_PRIME

    bad2 = build_M(2)
    bad2[4][1] = neg(bad2[4][1])  # the first traction row's s121 entry
    report2 = verify_identity(2, trials=3, matrix=bad2, seed=7)
    assert not report2.verified and report2.counterexample is not None


# reports on a build_M(N) with one entry negated, pinned by the sha256 of
# json.dumps(report.to_dict()): (N, entry, trials, seed, digest)
MUTATED_REPORTS = [
    (3, (1, 2), 3, 7, "52adafd7b7bed2a99502e0042db286d0546a6b5dee3b7fb2457e2312b1ecabe8"),
    (3, (1, 2), 3, 5, "1337fae42d5401ff14b80c65fd086f28692aa1453c30c8b9976686363dc3b59f"),
    (3, (16, 10), 3, 7, "52adafd7b7bed2a99502e0042db286d0546a6b5dee3b7fb2457e2312b1ecabe8"),
    (3, (0, 0), 5, 7, "01237800e56913d28e40e0cf43b6cef3f23af032e2452920153843cc9054d355"),
    (2, (4, 1), 3, 7, "3b702d423d99bea1913f874a72ff9afd4dafd8cb95c9f0e097647794edfea457"),
]


@pytest.mark.parametrize("N, entry, trials, seed, digest", MUTATED_REPORTS)
def test_mutated_matrix_report_bytes(N, entry, trials, seed, digest):
    bad = build_M(N)
    r, c = entry
    bad[r][c] = neg(bad[r][c])
    report = verify_identity(N, trials, matrix=bad, seed=seed)
    assert hashlib.sha256(json.dumps(report.to_dict()).encode()).hexdigest() == digest


def test_global_sign_flip_reports_minus_branch():
    # the first tangential row owns the only entry of its column, so negating
    # it flips the whole determinant: still the identity, with the minus sign
    bad = build_M(3)
    bad[0][0] = neg(bad[0][0])
    report = verify_identity(3, trials=5, matrix=bad, seed=7)
    assert report.verified
    assert report.sign == -1


def test_verify_identity_validation():
    with pytest.raises(ValueError):
        verify_identity(3, trials=0)
    with pytest.raises(ValueError):
        build_M(4)
    with pytest.raises(ValueError):
        build_Q(1)
    foreign = build_M(2)
    foreign[0][0] = {(("n3", 1),): 1}  # a variable of dimension 3 only
    with pytest.raises(ValueError, match="outside those of dimension 2"):
        verify_identity(2, trials=1, matrix=foreign)
