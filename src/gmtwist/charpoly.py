"""Exact integer characteristic polynomials of symmetric 0/1 matrices.

Strategy: compute the characteristic polynomial modulo enough word-size primes
and reconstruct the integer coefficients by the Chinese remainder theorem.
The prime product is chosen to exceed twice a Hadamard-style bound on the
coefficients, so the result is provably exact; no floating point is involved
anywhere.

The mod-p step is one batched kernel, `_charpoly_mod`: it takes a stack of B
matrices of equal dimension n and a vector of B primes, one per matrix, and
runs Hessenberg reduction (each matrix with its own pivots) and then the
leading-minor recurrence for all B at once in numpy int64.  It skips work
known to be zero: a reduction step that no matrix needs, the update of a row
whose multiplier is 0, and recurrence terms behind a sub-diagonal entry that
is 0 in every matrix.  `char_polys_exact` flattens (matrix, prime) pairs into
such stacks of at most `KERNEL_STACK_BYTES` bytes each, so memory stays
bounded however many matrices come in; `char_poly_exact` is the one-matrix
case.

Overflow: every entry is reduced into [0, p) with p < 2^25, so one product is
below 2^50 and a dot product of at most `_MAX_DIM` = 2^12 such terms stays
below 2^62, inside int64.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, isqrt

import numpy as np

from .errors import ParameterError

# Primes stay below 2^25 so that a dot product of up to 2^12 terms of
# (p-1)^2 < 2^50 products fits comfortably in int64.
_PRIME_CEILING = 1 << 25
_MAX_DIM = 1 << 12
# Upper bound on the int64 bytes of one stacked kernel input (B n x n matrices);
# the kernel's temporaries are a small multiple of it.
KERNEL_STACK_BYTES = 1 << 19


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def coefficient_bound(n: int) -> int:
    """Upper bound on |c_k| for the char poly of an n x n 0/1 symmetric matrix.

    c_k is (up to sign) a sum of C(n,k) principal k x k minors, each bounded
    by Hadamard's inequality by k^(k/2).
    """
    best = 1
    for k in range(n + 1):
        hadamard = isqrt(k**k) + 1
        best = max(best, comb(n, k) * hadamard)
    return best


@lru_cache(maxsize=None)
def primes_for_dimension(n: int) -> tuple[int, ...]:
    """Descending primes below 2^25 whose product exceeds 2 * coefficient_bound(n) + 1."""
    bound = 2 * coefficient_bound(n) + 1
    primes = []
    prod = 1
    p = _PRIME_CEILING - 1
    while prod <= bound:
        while not _is_prime(p):
            p -= 1
        primes.append(p)
        prod *= p
        p -= 1
    return tuple(primes)


def packed_rows(rows, nbits: int) -> np.ndarray:
    """Rows given as int bitmasks of at most nbits bits, as a read-only
    (len(rows), ceil(nbits/64)) little-endian uint64 array: bit j of row i is
    bit j % 64 of word j // 64.

    This is the one conversion from bitmasks to numpy; `adjacency_matrix`
    and the popcount kernels of `graph` all start from it.
    """
    width = (nbits + 63) // 64
    out = np.empty((len(rows), width), dtype="<u8")
    row_bytes = out.view(np.uint8)
    for i, r in enumerate(rows):
        row_bytes[i] = np.frombuffer(r.to_bytes(8 * width, "little"), np.uint8)
    out.flags.writeable = False
    return out


def adjacency_matrix(adj_rows, n: int) -> np.ndarray:
    """Dense n x n uint8 0/1 matrix of adjacency rows given as int bitmasks."""
    packed = packed_rows(adj_rows, n).view(np.uint8)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little")


def _charpoly_mod(A: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """char polys of A[b] modulo primes[b]; A is (B, n, n), primes is (B,) int64.

    Returns (B, n+1) int64, ascending coefficients reduced into [0, p).
    """
    B, n = A.shape[0], A.shape[1]
    p = primes.astype(np.int64)
    H = A.astype(np.int64)
    H %= p[:, None, None]
    plist = p.tolist()
    # Hessenberg reduction by similarity transforms over GF(p), per matrix
    for j in range(n - 2):
        nonzero = H[:, j + 1 :, j] != 0
        if not nonzero.any():
            continue  # column j is already reduced in every matrix
        piv = j + 1 + nonzero.argmax(axis=1)  # j+1 (no swap) for a zero column
        swap = np.flatnonzero(piv != j + 1)
        if swap.size:
            s, t = swap, piv[swap]
            H[s, j + 1, j:], H[s, t, j:] = H[s, t, j:], H[s, j + 1, j:]
            H[s, :, j + 1], H[s, :, t] = H[s, :, t], H[s, :, j + 1]
        pivots = H[:, j + 1, j].tolist()
        inv = np.array(
            [h if h < 2 else pow(h, -1, q) for h, q in zip(pivots, plist)], dtype=np.int64
        )
        mults = H[:, j + 2 :, j] * inv[:, None] % p[:, None]  # all 0 without a pivot
        # only rows with a nonzero multiplier change, and rows j+1.. are zero
        # left of column j, so gather those rows from column j on
        slot, row = np.nonzero(mults)
        target = row + j + 2
        updated = H[slot, target, j:]
        updated -= mults[slot, row, None] * H[slot, j + 1, j:]
        updated %= p[slot, None]
        H[slot, target, j:] = updated
        H[:, :, j + 1] += np.einsum("bik,bk->bi", H[:, :, j + 2 :], mults)
        H[:, :, j + 1] %= p[:, None]
    # recurrence over leading principal minors p_m of the Hessenberg matrix:
    # p_m = (x - h_{m-1,m-1}) p_{m-1} - sum_{k<m-1} h_{k,m-1} S[k] p_k with
    # S[k] = prod_{t=k}^{m-2} h_{t+1,t}.  S[k] is 0 in every matrix for k below
    # `lo`, the row after the last sub-diagonal that is zero in all of them.
    P = np.zeros((B, n + 1, n + 1), dtype=np.int64)
    P[:, 0, 0] = 1
    S = np.zeros((B, n), dtype=np.int64)
    lo = 0
    for m in range(1, n + 1):
        prev = P[:, m - 1, :m]
        pm = P[:, m, : m + 1]
        pm[:, 1:] = prev  # x * p_{m-1}
        pm[:, :m] -= H[:, m - 1, m - 1, None] * prev
        if lo < m - 1:
            weights = H[:, lo : m - 1, m - 1] * S[:, lo : m - 1] % p[:, None]
            pm[:, : m - 1] -= np.einsum("bk,bkc->bc", weights, P[:, lo : m - 1, : m - 1])
        pm %= p[:, None]
        if m < n:
            sub = H[:, m, m - 1]
            if sub.any():
                S[:, lo : m - 1] = S[:, lo : m - 1] * sub[:, None] % p[:, None]
                S[:, m - 1] = sub
            else:
                lo = m
    return P[:, n]


def _crt_pair(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int]:
    inv = pow(m1, -1, m2)
    t = ((r2 - r1) * inv) % m2
    return r1 + m1 * t, m1 * m2


def _crt_coefficients(residues: np.ndarray, primes: tuple[int, ...]) -> tuple[int, ...]:
    """Symmetric-range integers from residues[i][k] = c_k mod primes[i]."""
    n = residues.shape[1] - 1
    coeffs = []
    for k in range(n + 1):
        r, m = int(residues[0][k]), primes[0]
        for resvec, p in zip(residues[1:], primes[1:]):
            r, m = _crt_pair(r, m, int(resvec[k]), p)
        if r > m // 2:
            r -= m
        coeffs.append(r)
    assert coeffs[n] == 1
    return tuple(coeffs)


def char_polys_exact(mats: np.ndarray) -> list[tuple[int, ...]]:
    """Exact char polys det(xI - A) of a stack of 0/1 matrices, shape (V, n, n).

    Each (matrix, prime) pair is one kernel slot; slots go through the kernel
    in chunks of at most KERNEL_STACK_BYTES of int64 input.  Equal residue
    vectors are reconstructed once.  Returns one tuple of ascending integer
    coefficients (c_0, ..., c_n), c_n = 1, per matrix.
    """
    V, n = mats.shape[0], mats.shape[1]
    if n >= _MAX_DIM:
        raise ParameterError(f"matrix dimension {n} exceeds charpoly limit {_MAX_DIM}")
    primes = primes_for_dimension(n)
    slot_mat = np.repeat(np.arange(V), len(primes))
    slot_prime = np.tile(np.array(primes, dtype=np.int64), V)
    chunk = max(1, KERNEL_STACK_BYTES // (8 * (n + 1) * (n + 1)))
    residues = np.empty((V * len(primes), n + 1), dtype=np.int64)
    for lo in range(0, V * len(primes), chunk):
        hi = lo + chunk
        residues[lo:hi] = _charpoly_mod(mats[slot_mat[lo:hi]], slot_prime[lo:hi])
    distinct, which = np.unique(
        residues.reshape(V, len(primes) * (n + 1)), axis=0, return_inverse=True
    )
    polys = [_crt_coefficients(row.reshape(len(primes), n + 1), primes) for row in distinct]
    return [polys[i] for i in which.reshape(-1)]


def char_poly_exact(adj_rows: list[int], n: int) -> tuple[int, ...]:
    """Exact char poly det(xI - A) of an adjacency matrix given as row bitmasks.

    Returns ascending integer coefficients (c_0, ..., c_n) with c_n = 1.
    """
    if n >= _MAX_DIM:
        raise ParameterError(f"matrix dimension {n} exceeds charpoly limit {_MAX_DIM}")
    return char_polys_exact(adjacency_matrix(adj_rows, n)[None])[0]
