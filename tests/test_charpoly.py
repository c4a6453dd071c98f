import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gmtwist.charpoly as charpoly_mod
from gmtwist.charpoly import (
    _charpoly_mod,
    char_poly_exact,
    char_polys_exact,
    coefficient_bound,
    primes_for_dimension,
)
from gmtwist.construct import Parameters, canonical_grassmann
from gmtwist.errors import ParameterError
from gmtwist.subspace import gaussian_binomial


def _adj_rows_from_edges(n, edges):
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def test_triangle():
    # char poly of K3 is x^3 - 3x - 2
    rows = _adj_rows_from_edges(3, [(0, 1), (0, 2), (1, 2)])
    assert char_poly_exact(rows, 3) == (-2, -3, 0, 1)


def test_edgeless_and_trivial():
    assert char_poly_exact([0] * 5, 5) == (0, 0, 0, 0, 0, 1)
    assert char_poly_exact([], 0) == (1,)
    assert char_poly_exact([0], 1) == (0, 1)


def test_single_edge():
    # path P2: x^2 - 1
    assert char_poly_exact(_adj_rows_from_edges(2, [(0, 1)]), 2) == (-1, 0, 1)


def _sympy_charpoly(rows, n):
    import sympy

    M = sympy.Matrix(n, n, lambda i, j: (rows[i] >> j) & 1)
    poly = M.charpoly()
    coeffs = poly.all_coeffs()  # descending
    return tuple(int(c) for c in reversed(coeffs))


@pytest.mark.parametrize("seed", range(20))
def test_random_small_graphs_vs_sympy(seed):
    rng = random.Random(seed)
    n = rng.randrange(2, 9)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    rows = _adj_rows_from_edges(n, edges)
    assert char_poly_exact(rows, n) == _sympy_charpoly(rows, n)


def test_generic_coefficient_identities():
    rng = random.Random(99)
    for _ in range(10):
        n = rng.randrange(3, 10)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        coeffs = char_poly_exact(_adj_rows_from_edges(n, edges), n)
        assert coeffs[n] == 1  # monic
        assert coeffs[n - 1] == 0  # trace of an adjacency matrix is 0
        assert coeffs[n - 2] == -len(edges)  # sum of 2x2 principal minors


def test_grassmann_5_3_spectrum():
    # 42-regular on 155 vertices with eigenvalues 42, 11, -3 and
    # multiplicities 1, 30, 124 (differences of Gaussian binomials)
    G = canonical_grassmann(Parameters(2, 2))
    rows = list(G.adj)
    coeffs = char_poly_exact(rows, G.n)
    # multiplicity oracle: m_j = [5,j]_q - [5,j-1]_q for j = 0,1,2
    mults = [
        gaussian_binomial(5, j, 2) - (gaussian_binomial(5, j - 1, 2) if j else 0)
        for j in range(3)
    ]
    assert mults == [1, 30, 124]
    # expand (x-42)(x-11)^30(x+3)^124 independently and compare
    poly = [1]
    for root, mult in ((42, 1), (11, 30), (-3, 124)):
        for _ in range(mult):
            poly = [0] + poly
            poly = [poly[i] - root * (poly[i + 1] if i + 1 < len(poly) else 0) for i in range(len(poly))]
    assert tuple(poly) == coeffs


def test_coefficient_bound_dominates():
    rng = random.Random(3)
    for _ in range(5):
        n = rng.randrange(2, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
        coeffs = char_poly_exact(_adj_rows_from_edges(n, edges), n)
        assert max(abs(c) for c in coeffs) <= coefficient_bound(n)


def test_dimension_cap():
    with pytest.raises(ParameterError):
        char_poly_exact([0] * 5000, 5000)


# --- batched mod-p kernel -------------------------------------------------

# a mix of the kernel's own primes just below 2^25 and small ones, where
# pivots vanish mod p far more often
MIXED_PRIMES = (2, 3, 5, 7, 101, 65537) + primes_for_dimension(30)


def _per_matrix_charpoly_mod(A, p):
    """One matrix at a time, scalar pivots: an independent reference for the batched kernel."""
    H = (A % p).astype(np.int64)
    n = H.shape[0]
    if n == 0:
        return np.array([1], dtype=np.int64)
    for j in range(n - 2):
        col = H[j + 1 :, j]
        nz = np.nonzero(col)[0]
        if len(nz) == 0:
            continue
        piv = j + 1 + int(nz[0])
        if piv != j + 1:
            H[[j + 1, piv]] = H[[piv, j + 1]]
            H[:, [j + 1, piv]] = H[:, [piv, j + 1]]
        inv = pow(int(H[j + 1, j]), p - 2, p)
        mults = (H[j + 2 :, j] * inv) % p
        H[j + 2 :] = (H[j + 2 :] - mults[:, None] * H[j + 1][None, :]) % p
        H[:, j + 1] = (H[:, j + 1] + H[:, j + 2 :] @ mults) % p
    P = np.zeros((n + 1, n + 1), dtype=np.int64)
    P[0, 0] = 1
    sub = np.diagonal(H, -1).copy()
    for m in range(1, n + 1):
        pm = np.zeros(n + 1, dtype=np.int64)
        pm[1 : m + 1] = P[m - 1, 0:m]
        pm = (pm - int(H[m - 1, m - 1]) * P[m - 1]) % p
        if m >= 2:
            weights = np.zeros(m - 1, dtype=np.int64)
            running = 1
            for i in range(1, m):
                running = (running * int(sub[m - i - 1])) % p
                if running == 0:
                    break
                weights[i - 1] = (int(H[m - i - 1, m - 1]) * running) % p
            rows = P[m - 2 :: -1][: m - 1]
            pm = (pm - (weights @ rows)) % p
        P[m] = pm
    return P[n]


def _symmetric(n, kind, rng):
    """0/1 symmetric matrix with zero diagonal of the given kind."""
    if kind == "empty":
        upper = np.zeros((n, n), dtype=bool)
    elif kind == "dense":
        upper = np.ones((n, n), dtype=bool)
    else:
        upper = rng.random((n, n)) < 0.5
    A = np.triu(upper, 1)
    A = (A | A.T).astype(np.uint8)
    if kind == "isolated" and n:
        lonely = rng.random(n) < 0.4  # zero rows and columns: pivot-free steps
        A[lonely] = 0
        A[:, lonely] = 0
    return A


@st.composite
def stacks(draw):
    n = draw(st.integers(0, 8))
    kinds = draw(st.lists(st.sampled_from(["empty", "dense", "random", "isolated"]), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = np.stack([_symmetric(n, kind, rng) for kind in kinds]).reshape(len(kinds), n, n)
    primes = draw(st.lists(st.sampled_from(MIXED_PRIMES), min_size=len(kinds), max_size=len(kinds)))
    return mats, np.array(primes, dtype=np.int64)


def _sympy_of_matrix(A):
    n = A.shape[0]
    return _sympy_charpoly([sum(int(b) << j for j, b in enumerate(row)) for row in A], n)


@settings(max_examples=60, deadline=None)
@given(stacks())
def test_batched_kernel_matches_sympy(stack):
    mats, primes = stack
    exact = [_sympy_of_matrix(A) for A in mats]
    residues = _charpoly_mod(mats, primes)
    for row, poly, p in zip(residues.tolist(), exact, primes.tolist()):
        assert row == [c % p for c in poly]
    assert char_polys_exact(mats) == exact


@pytest.mark.parametrize("seed", range(8))
def test_batched_kernel_matches_per_matrix_reference(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 25))
    kinds = ["empty", "dense", "random", "random", "isolated", "isolated"]
    mats = np.stack([_symmetric(n, kind, rng) for kind in kinds]).reshape(len(kinds), n, n)
    primes = rng.choice(np.array(MIXED_PRIMES, dtype=np.int64), size=len(kinds))
    batched = _charpoly_mod(mats, primes)
    for A, p, row in zip(mats, primes.tolist(), batched):
        assert row.tolist() == _per_matrix_charpoly_mod(A.astype(np.int64), p).tolist()


def test_zero_pivot_column_in_mixed_batch():
    # column 0 of the first matrix has no pivot (vertex 0 is isolated) while
    # the second needs a row swap; each must reduce as if alone
    path = np.zeros((5, 5), dtype=np.uint8)
    for u, v in ((1, 2), (2, 3), (3, 4)):
        path[u, v] = path[v, u] = 1
    swap = np.zeros((5, 5), dtype=np.uint8)
    for u, v in ((0, 3), (1, 2), (3, 4), (1, 4)):
        swap[u, v] = swap[v, u] = 1
    mats = np.stack([path, swap])
    for p in (3, MIXED_PRIMES[-1]):
        rows = _charpoly_mod(mats, np.array([p, p]))
        for A, row in zip(mats, rows):
            assert row.tolist() == _per_matrix_charpoly_mod(A.astype(np.int64), p).tolist()
    assert char_polys_exact(mats) == [_sympy_of_matrix(A) for A in mats]


def test_chunk_boundaries_do_not_change_results(monkeypatch):
    rng = np.random.default_rng(7)
    n = 12
    mats = np.stack([_symmetric(n, kind, rng) for kind in ["random", "isolated", "dense"] * 5])
    primes = np.array(MIXED_PRIMES[-6:] * 5 + MIXED_PRIMES[:3] * 5, dtype=np.int64)[: len(mats)]
    whole = _charpoly_mod(mats, primes)
    split = np.concatenate([_charpoly_mod(mats[lo : lo + 4], primes[lo : lo + 4]) for lo in range(0, len(mats), 4)])
    assert (whole == split).all()
    unsplit = char_polys_exact(mats)
    # 7 slots per chunk: the primes of one matrix straddle chunk boundaries
    monkeypatch.setattr(charpoly_mod, "KERNEL_STACK_BYTES", 7 * 8 * (n + 1) ** 2)
    assert char_polys_exact(mats) == unsplit
    monkeypatch.setattr(charpoly_mod, "KERNEL_STACK_BYTES", 1)
    assert char_polys_exact(mats) == unsplit


def test_prime_list_is_memoised_and_immutable():
    primes = primes_for_dimension(42)
    assert isinstance(primes, tuple)
    assert primes_for_dimension(42) is primes
    assert all(p < 1 << 25 for p in primes) and list(primes) == sorted(primes, reverse=True)
    product = 1
    for p in primes:
        product *= p
    assert product > 2 * coefficient_bound(42) + 1
