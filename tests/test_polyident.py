"""Tests for the exact determinant-identity verifier."""

import random

import pytest

from filmstab.polyident import (
    FIELD_PRIME,
    MultiPoly,
    PolyMatrix,
    PolyRing,
    build_M,
    build_Q,
    det_mod,
    verify_identity,
)


def small_ring():
    return PolyRing(["x", "y", "z"])


def random_poly(ring, rng, max_terms=4, max_exp=2, coeff=5):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        mono = tuple(
            sorted(
                (v, rng.randint(1, max_exp))
                for v in rng.sample(range(len(ring.names)), rng.randrange(1, 3))
            )
        )
        terms[mono] = rng.randint(-coeff, coeff)
    return MultiPoly(ring, terms)


# -- polynomial ring -------------------------------------------------------------


def test_ring_arithmetic_and_canonical_form():
    ring = small_ring()
    x, y = ring.var("x"), ring.var("y")
    square = (x + y) * (x + y)
    assert square == x * x + 2 * x * y + y * y
    assert (square - square).is_zero
    assert not (square - square).terms  # no zero coefficients stored
    assert (x - x).terms == {}
    assert (x + 1) * (x - 1) == x * x - 1
    assert (x + y) ** 3 == x**3 + 3 * x * x * y + 3 * x * y * y + y**3
    assert x.degree() == 1 and (x * x * y).degree() == 3
    assert (x * x * y).degree(["y"]) == 1
    assert ring.const(0).is_zero and ring.const(0).degree() == -1


def test_ring_distributivity_on_sampled_triples():
    ring = small_ring()
    rng = random.Random(3)
    for _ in range(25):
        a, b, c = (random_poly(ring, rng) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_evaluate_exact_and_modular():
    ring = small_ring()
    x, y, z = (ring.var(v) for v in "xyz")
    poly = 3 * x * x * y - 7 * z + 2
    vals = {"x": 4, "y": -3, "z": 11}
    assert poly.evaluate(vals) == 3 * 16 * (-3) - 77 + 2
    assert poly.evaluate(vals, 97) == (3 * 16 * (-3) - 77 + 2) % 97


# -- determinants ------------------------------------------------------------------


def test_det_trivial_cases():
    ring = small_ring()
    x, y, z = (ring.var(v) for v in "xyz")
    one, zero = ring.one, ring.zero
    assert PolyMatrix(ring, [[one, zero], [zero, one]]).det() == one
    diag = PolyMatrix(ring, [[x, zero, zero], [zero, y, zero], [zero, zero, z]])
    assert diag.det() == x * y * z
    two = PolyMatrix(ring, [[x, y], [z, one]])
    assert two.det() == x - y * z


def test_det_row_swap_antisymmetry():
    ring = small_ring()
    rng = random.Random(5)
    rows = [[random_poly(ring, rng, max_terms=2) + 1 for _ in range(3)] for _ in range(3)]
    base = PolyMatrix(ring, rows).det()
    swapped = PolyMatrix(ring, [rows[1], rows[0], rows[2]]).det()
    assert swapped == -base


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


def test_acoustic_matrix_isotropic_vertical():
    lam, mu = 5, 3
    q3 = build_Q(3).evaluate(isotropic_assignment(3, lam, mu, (0, 0, 1)))
    assert q3 == [[mu, 0, 0], [0, mu, 0], [0, 0, lam + 2 * mu]]
    q2 = build_Q(2).evaluate(isotropic_assignment(2, lam, mu, (0, 1)))
    assert q2 == [[mu, 0], [0, lam + 2 * mu]]


def test_acoustic_matrix_symmetric_under_major_symmetry():
    rng = random.Random(17)
    Q = build_Q(3)
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
    values = Q.evaluate(assignment)
    for i in range(3):
        for j in range(3):
            assert values[i][j] == values[j][i]


# -- the surface-derivative system ------------------------------------------------------


def test_system_structure_3d():
    M = build_M(3)
    assert M.size == 18
    ring = M.ring
    nu_names = ["n1", "n2", "n3"]
    c_names = [n for n in ring.names if n.startswith("C")]
    two_entry_rows = 0
    nine_entry_rows = 0
    for r in range(18):
        nonzero = [M[r, c] for c in range(18) if not M[r, c].is_zero]
        for entry in nonzero:
            assert entry.degree(nu_names) <= 1
            assert entry.degree(c_names) <= 1
        if len(nonzero) == 2:
            two_entry_rows += 1
            assert all(e.degree(c_names) == 0 for e in nonzero)
            assert any(e == ring.var("n3") for e in nonzero)
            assert any(e == -ring.var("n1") or e == -ring.var("n2") for e in nonzero)
        elif len(nonzero) == 9:
            nine_entry_rows += 1
            assert all(e.degree(c_names) == 1 and e.degree(nu_names) == 1 for e in nonzero)
        else:
            raise AssertionError(f"unexpected row population {len(nonzero)}")
    assert two_entry_rows == 15
    assert nine_entry_rows == 3


def test_system_structure_2d():
    M = build_M(2)
    assert M.size == 6
    ring = M.ring
    c_names = [n for n in ring.names if n.startswith("C")]
    for r in (0, 1):  # traction rows load the four mixed/vertical columns
        populated = [c for c in range(6) if not M[r, c].is_zero]
        assert populated == [2, 3, 4, 5]
        assert all(M[r, c].degree(c_names) == 1 for c in populated)
    for r in (2, 3, 4, 5):
        populated = [c for c in range(6) if not M[r, c].is_zero]
        assert len(populated) == 2
        entries = [M[r, c] for c in populated]
        assert ring.var("n2") in entries and -ring.var("n1") in entries


def test_vertical_normal_reduces_system_to_acoustic():
    rng = random.Random(23)
    for N in (2, 3):
        assignment = {f"n{i}": 0 for i in range(1, N + 1)}
        assignment[f"n{N}"] = 1
        for name in build_M(N).ring.names:
            if name.startswith("C"):
                assignment[name] = rng.randrange(FIELD_PRIME)
        det_m = det_mod(build_M(N).evaluate(assignment, FIELD_PRIME), FIELD_PRIME)
        det_q = det_mod(build_Q(N).evaluate(assignment, FIELD_PRIME), FIELD_PRIME)
        assert det_m == det_q  # the vertical power is 1 here and the sign is +


# -- the identity -----------------------------------------------------------------------


def test_identity_2d_exact_expansion():
    report = verify_identity(2, trials=5, seed=0)
    assert report.verified and report.exact
    assert report.sign == 1
    assert report.counterexample is None
    assert report.degree_bound == 8

    # independent symbolic statement, outside verify_identity's own path
    M, Q = build_M(2), build_Q(2)
    diff = M.det() - M.ring.var("n2") ** 2 * Q.det()
    assert diff.is_zero


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
    for idx in [(1, 2), (16, 10)]:
        bad = build_M(3)
        bad[idx] = -bad[idx]
        report = verify_identity(3, trials=3, matrix=bad, seed=7)
        assert not report.verified
        assert report.counterexample is not None
        # the counterexample honestly violates the signed identity
        ctrex = report.counterexample
        det_m = det_mod(bad.evaluate(ctrex, FIELD_PRIME), FIELD_PRIME)
        rhs = (
            pow(ctrex["n3"], 12, FIELD_PRIME)
            * det_mod(build_Q(3).evaluate(ctrex, FIELD_PRIME), FIELD_PRIME)
            % FIELD_PRIME
        )
        assert det_m != rhs and det_m != (-rhs) % FIELD_PRIME

    bad2 = build_M(2)
    bad2[0, 2] = -bad2[0, 2]
    report2 = verify_identity(2, trials=3, matrix=bad2, seed=7)
    assert not report2.verified and report2.counterexample is not None


def test_global_sign_flip_reports_minus_branch():
    # the first tangential row owns the only entry of its column, so negating
    # it flips the whole determinant: still the identity, with the minus sign
    bad = build_M(3)
    bad[0, 0] = -bad[0, 0]
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
