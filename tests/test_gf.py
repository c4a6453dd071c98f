import random

import pytest

from gmtwist.errors import ParameterError
from gmtwist.gf import make_field, rank_of_rows, rref_rows

SUPPORTED = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


@pytest.mark.parametrize("q", SUPPORTED)
def test_field_axioms_exhaustive(q):
    ctx = make_field(q)
    els = range(q)
    for a in els:
        assert ctx.add(a, 0) == a
        assert ctx.mul(a, 1) == a
        assert ctx.add(a, ctx.neg(a)) == 0
        if a != 0:
            assert ctx.mul(a, ctx.inv(a)) == 1
        for b in els:
            assert ctx.add(a, b) == ctx.add(b, a)
            assert ctx.mul(a, b) == ctx.mul(b, a)
            for c in els:
                assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
                assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
                assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))


def test_gf4_modulus_is_unique_irreducible_quadratic():
    # exhaustive irreducibility scan over GF(2): x^2+x+1 is the only monic
    # irreducible quadratic, so the deterministic choice is forced
    def has_root(c0, c1):
        return any((x * x + c1 * x + c0) % 2 == 0 for x in (0, 1))

    irreducible = [(c0, c1) for c0 in (0, 1) for c1 in (0, 1) if not has_root(c0, c1)]
    assert irreducible == [(1, 1)]
    assert make_field(4).modulus == (1, 1, 1)  # ascending coeffs of x^2+x+1


@pytest.mark.parametrize("q", [1, 6, 10, 12, 18, 32, 0, -3])
def test_bad_field_orders_rejected(q):
    with pytest.raises(ParameterError):
        make_field(q)


def test_field_context_operations():
    assert make_field(2).add(1, 1) == 0
    assert make_field(3).inv(2) == 2
    # GF(4): element 2 encodes x; x*x = x+1 = element 3 under x^2+x+1
    assert make_field(4).mul(2, 2) == 3
    assert make_field(5).sub(1, 3) == 3 and make_field(5).neg(2) == 3
    with pytest.raises(ZeroDivisionError):
        make_field(5).inv(0)


def _is_rref(ctx, rows, ncols, pivots):
    r = 0
    prev = -1
    for row in rows:
        lead = next((j for j, x in enumerate(row) if x != 0), None)
        if lead is None:
            continue
        if lead <= prev or row[lead] != 1:
            return False
        if any(rows[i][lead] != 0 for i in range(len(rows)) if i != r):
            return False
        prev = lead
        if r < len(pivots) and pivots[r] != lead:
            return False
        r += 1
    return True


def test_rref_identity_and_zero():
    ctx = make_field(3)
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    R, rank, pivots = rref_rows(ctx, ident, 3)
    assert R == ident and rank == 3 and pivots == [0, 1, 2]
    zero = [[0, 0], [0, 0]]
    R, rank, pivots = rref_rows(ctx, zero, 2)
    assert R == zero and rank == 0 and pivots == []


def test_rref_hand_example_gf2():
    ctx = make_field(2)
    rows = [[1, 1, 0, 0], [0, 1, 1, 0]]
    R, rank, pivots = rref_rows(ctx, rows, 4)
    assert R == [[1, 0, 1, 0], [0, 1, 1, 0]]
    assert rank == 2
    assert _is_rref(ctx, R, 4, pivots)
    assert rows == [[1, 1, 0, 0], [0, 1, 1, 0]]  # the input is left as it was


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_rref_idempotent_and_axioms_random(q):
    rng = random.Random(q * 1000 + 7)
    ctx = make_field(q)
    for _ in range(50):
        rows = [[rng.randrange(q) for _ in range(5)] for _ in range(3)]
        R, rank, pivots = rref_rows(ctx, rows, 5)
        assert _is_rref(ctx, R, 5, pivots)
        # zero rows last
        assert all(any(r) for r in R[:rank]) and not any(any(r) for r in R[rank:])
        R2, rank2, pivots2 = rref_rows(ctx, R, 5)
        assert R2 == R and rank2 == rank and pivots2 == pivots
        assert rank == rank_of_rows(ctx, rows, 5)


def _random_invertible(ctx, k, rng):
    q = ctx.q
    while True:
        M = [[rng.randrange(q) for _ in range(k)] for _ in range(k)]
        if rank_of_rows(ctx, M, k) == k:
            return M


def _matmul(ctx, A, B):
    out = [[0] * len(B[0]) for _ in range(len(A))]
    for i, ra in enumerate(A):
        for j in range(len(B[0])):
            acc = 0
            for t, a in enumerate(ra):
                if a:
                    acc = ctx.add(acc, ctx.mul(a, B[t][j]))
            out[i][j] = acc
    return out


@pytest.mark.parametrize("q", [2, 3, 4])
def test_rref_canonical_under_row_space_preserving_changes(q):
    rng = random.Random(q)
    ctx = make_field(q)
    base = [[rng.randrange(q) for _ in range(6)] for _ in range(3)]
    R0, rank0, _ = rref_rows(ctx, base, 6)
    for _ in range(100):
        T = _random_invertible(ctx, 3, rng)
        R, rank, _ = rref_rows(ctx, _matmul(ctx, T, base), 6)
        assert R == R0 and rank == rank0
