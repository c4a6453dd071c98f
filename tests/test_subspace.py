import random
from itertools import combinations, product

import pytest

from gmtwist.errors import BudgetExceededError, DomainError, ParameterError
from gmtwist.gf import make_field
from gmtwist.subspace import (
    Polarity,
    Subspace,
    apply_polarity,
    contains,
    dim_intersection,
    enumerate_subspaces,
    gaussian_binomial,
    is_totally_isotropic,
    make_polarity,
    make_polarity_from_gram,
    point_mask,
    span,
    subspace_sum,
)
from helpers import mask_contains


def test_canonicalize_examples():
    ctx = make_field(2)
    S = span(ctx, [[1, 1, 0], [0, 1, 1]], 3)
    assert S.basis == ((1, 0, 1), (0, 1, 1)) and S.dim == 2

    Z = span(ctx, [[0, 0, 0]], 3)
    assert Z.dim == 0 and Z.basis == ()

    F = span(ctx, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3)
    assert F.dim == 3 and F.basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_canonicalize_invariant_under_basis_change():
    rng = random.Random(42)
    ctx = make_field(3)
    base = span(ctx, [[1, 2, 0, 1], [0, 1, 1, 1]], 4)
    for _ in range(50):
        # random invertible combination of the two basis rows
        while True:
            a, b, c, d = (rng.randrange(3) for _ in range(4))
            if (a * d - b * c) % 3 != 0:
                break
        r1 = [ctx.add(ctx.mul(a, x), ctx.mul(b, y)) for x, y in zip(*base.basis)]
        r2 = [ctx.add(ctx.mul(c, x), ctx.mul(d, y)) for x, y in zip(*base.basis)]
        assert span(ctx, [r1, r2], 4) == base


def _dim_by_points(U, W):
    """d with [d] = (q^d - 1)/(q - 1) common points."""
    count = (point_mask(U) & point_mask(W)).bit_count()
    d = 0
    while gaussian_binomial(d, 1, U.ctx.q) < count:
        d += 1
    assert gaussian_binomial(d, 1, U.ctx.q) == count
    return d


def test_dim_intersection_examples():
    ctx = make_field(2)
    U = span(ctx, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]], 5)
    assert dim_intersection(U, U) == 3

    # two distinct hyperplanes of GF(2)^4 meet in dimension 2
    H1 = span(ctx, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], 4)
    H2 = span(ctx, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 4)
    assert dim_intersection(H1, H2) == 2

    # two distinct 3-spaces of GF(2)^5 sharing a fixed 2-space
    W1 = span(ctx, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]], 5)
    W2 = span(ctx, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 1, 0]], 5)
    assert dim_intersection(W1, W2) == 2
    assert _dim_by_points(W1, W2) == 2  # brute-force point-set oracle


def test_dim_intersection_ambient_mismatch():
    ctx = make_field(2)
    with pytest.raises(ParameterError):
        dim_intersection(span(ctx, [[1, 0]], 2), span(ctx, [[1, 0, 0]], 3))


def test_sum_and_contains():
    ctx = make_field(2)
    U = span(ctx, [[1, 0, 0, 0], [0, 1, 0, 0]], 4)
    W = span(ctx, [[0, 1, 0, 0], [0, 0, 1, 0]], 4)
    assert subspace_sum(U, U) == U
    assert contains(U, U)
    S = subspace_sum(U, W)
    assert S.dim == 3 and contains(S, U) and contains(S, W)
    assert not contains(U, W)
    # point-set oracle: the sum's points include every point of both sides
    assert mask_contains(point_mask(S), point_mask(U) | point_mask(W))
    assert not mask_contains(point_mask(U), point_mask(W))

    p1 = span(ctx, [[1, 0, 0, 0]], 4)
    p2 = span(ctx, [[0, 0, 0, 1]], 4)
    s12 = subspace_sum(p1, p2)
    assert s12.dim == 2 and contains(s12, p1) and contains(s12, p2)


def test_modular_law_random():
    rng = random.Random(7)
    for q in (2, 3):
        ctx = make_field(q)
        for _ in range(60):
            U = span(ctx, [[rng.randrange(q) for _ in range(4)] for _ in range(2)], 4)
            W = span(ctx, [[rng.randrange(q) for _ in range(4)] for _ in range(2)], 4)
            assert dim_intersection(U, W) + subspace_sum(U, W).dim == U.dim + W.dim


def _brute_force_2_subspaces_gf2_dim4():
    ctx = make_field(2)
    vecs = [v for v in product(range(2), repeat=4) if any(v)]
    found = set()
    for a, b in combinations(vecs, 2):
        S = span(ctx, [list(a), list(b)], 4)
        if S.dim == 2:
            found.add(S)
    return found


def test_enumerate_subspaces_counts_and_brute_force():
    ctx = make_field(2)
    subs = enumerate_subspaces(ctx, 4, 2)
    assert len(subs) == 35 == gaussian_binomial(4, 2, 2)
    assert len(set(subs)) == 35
    assert subs == sorted(subs)
    assert set(subs) == _brute_force_2_subspaces_gf2_dim4()

    assert len(enumerate_subspaces(ctx, 5, 3)) == 155 == gaussian_binomial(5, 3, 2)
    assert len(enumerate_subspaces(ctx, 4, 0)) == 1
    assert len(enumerate_subspaces(make_field(3), 4, 4)) == 1


def test_enumeration_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_subspaces(make_field(2), 5, 3, budget=100)


def test_gaussian_binomial_product_formula():
    assert gaussian_binomial(4, 0, 2) == 1
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(5, 3, 2) == (2**5 - 1) * (2**4 - 1) * (2**3 - 1) // (
        (2**3 - 1) * (2**2 - 1) * (2 - 1)
    )
    assert gaussian_binomial(5, 3, 3) == 1210
    # symmetry and Pascal-type recurrence as independent cross-checks
    for n in range(1, 7):
        for k in range(n + 1):
            assert gaussian_binomial(n, k, 2) == gaussian_binomial(n, n - k, 2)
            if 0 < k:
                assert gaussian_binomial(n, k, 3) == gaussian_binomial(
                    n - 1, k - 1, 3
                ) + 3**k * gaussian_binomial(n - 1, k, 3)


def test_projective_points():
    ctx = make_field(2)
    zero = span(ctx, [], 3)
    assert point_mask(zero) == 0
    line = span(ctx, [[1, 1, 0]], 3)
    points = enumerate_subspaces(ctx, 3, 1)
    assert point_mask(line) == 1 << points.index(line)
    full = span(ctx, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3)
    assert point_mask(full) == (1 << 7) - 1
    # over GF(3) a plane has (9-1)/2 = 4 points
    plane3 = span(make_field(3), [[1, 0, 0], [0, 1, 0]], 3)
    assert point_mask(plane3).bit_count() == 4


@pytest.mark.parametrize("q,n", [(2, 5), (3, 4), (4, 3), (5, 3), (9, 2)])
def test_point_mask_is_containment_in_canonical_point_order(q, n):
    # bit i of point_mask(W) is set exactly when the i-th point in
    # enumerate_subspaces order lies in W, for subspaces of every dimension
    ctx = make_field(q)
    points = enumerate_subspaces(ctx, n, 1)
    assert [point_mask(P) for P in points] == [1 << i for i in range(len(points))]
    rng = random.Random(q * 100 + n)
    for k in range(n + 1):
        subs = enumerate_subspaces(ctx, n, k)
        for W in rng.sample(subs, min(len(subs), 20)):
            want = sum(1 << i for i, P in enumerate(points) if contains(W, P))
            assert point_mask(W) == want
            assert want.bit_count() == gaussian_binomial(k, 1, q)


# ---------------------------------------------------------------------------
# polarity


def _all_h_subspaces(ctx, e):
    out = []
    for k in range(2 * e + 1):
        out.extend(enumerate_subspaces(ctx, 2 * e, k))
    return out


@pytest.mark.parametrize("q,e", [(2, 2), (3, 2)])
def test_polarity_axioms_exhaustive(q, e):
    ctx = make_field(q)
    sigma = make_polarity(ctx, e)
    subs = _all_h_subspaces(ctx, e)
    images = {}
    for U in subs:
        sU = apply_polarity(sigma, U)
        assert sU.dim == 2 * e - U.dim
        assert apply_polarity(sigma, sU) == U
        images[U] = sU
    # inclusion reversal over all comparable pairs
    for U in subs:
        for W in subs:
            if contains(W, U):
                assert contains(images[U], images[W])
    # permutation of the subspace lattice
    assert len(set(images.values())) == len(subs)


def test_polarity_lattice_antiautomorphism():
    ctx = make_field(2)
    e = 2
    sigma = make_polarity(ctx, e)
    rng = random.Random(5)
    subs = _all_h_subspaces(ctx, e)
    for _ in range(200):
        U, W = rng.choice(subs), rng.choice(subs)
        sU, sW = apply_polarity(sigma, U), apply_polarity(sigma, W)
        lhs = apply_polarity(sigma, subspace_sum(U, W))
        # sigma(U+W) = sigma(U) cap sigma(W): compare via dimension + containment
        assert lhs.dim == dim_intersection(sU, sW)
        assert contains(sU, lhs) and contains(sW, lhs)


def test_polarity_extremes_and_small_case():
    ctx = make_field(2)
    sigma = make_polarity(ctx, 1)
    assert sigma.gram == ((0, 1), (1, 0))  # -1 = 1 in characteristic 2
    H = span(ctx, [[1, 0], [0, 1]], 2)
    zero = span(ctx, [], 2)
    assert apply_polarity(sigma, zero) == H
    assert apply_polarity(sigma, H) == zero
    # e=1, q=2: each 1-subspace maps to its perp under [[0,1],[1,0]]
    for U in enumerate_subspaces(ctx, 2, 1):
        sU = apply_polarity(sigma, U)
        u = U.basis[0]
        w = sU.basis[0]
        # form(u, w) = u0*w1 + u1*w0 must vanish
        assert (u[0] * w[1] + u[1] * w[0]) % 2 == 0


@pytest.mark.parametrize("q,e,expected", [(2, 2, 15), (3, 2, 40)])
def test_totally_isotropic_count(q, e, expected):
    # fixed points of the polarity at dim e are exactly the totally isotropic
    # e-subspaces; their count is (q+1)(q^2+1) at e=2
    ctx = make_field(q)
    sigma = make_polarity(ctx, e)
    fixed = [U for U in enumerate_subspaces(ctx, 2 * e, e) if apply_polarity(sigma, U) == U]
    assert len(fixed) == expected == (q + 1) * (q**2 + 1)
    assert all(is_totally_isotropic(sigma, U) for U in fixed)


def test_intersection_dim_preserved_under_polarity():
    # dim(U cap U') = dim(sigma U cap sigma U') for all e-subspace pairs of H
    ctx = make_field(2)
    sigma = make_polarity(ctx, 2)
    subs = enumerate_subspaces(ctx, 4, 2)
    images = {U: apply_polarity(sigma, U) for U in subs}
    for U in subs:
        for W in subs:
            assert dim_intersection(U, W) == dim_intersection(images[U], images[W])


def test_polarity_domain_errors():
    ctx = make_field(2)
    sigma = make_polarity(ctx, 2)
    not_in_H = span(ctx, [[0, 0, 0, 0, 1]], 5)
    with pytest.raises(DomainError):
        apply_polarity(sigma, not_in_H)
    with pytest.raises(ParameterError):
        apply_polarity(sigma, span(ctx, [[1, 0, 0]], 3))
    with pytest.raises(ParameterError):
        make_polarity_from_gram(ctx, 1, ((1, 0), (0, 1)))  # not alternating
    with pytest.raises(ParameterError):
        make_polarity_from_gram(ctx, 1, ((0, 0), (0, 0)))  # degenerate


def test_embedded_polarity_matches_bare():
    ctx = make_field(3)
    sigma = make_polarity(ctx, 2)
    for U in enumerate_subspaces(ctx, 4, 2)[:40]:
        emb = Subspace(ctx, 5, tuple(tuple(r) + (0,) for r in U.basis))
        sU = apply_polarity(sigma, U)
        s_emb = apply_polarity(sigma, emb)
        assert s_emb.basis == tuple(tuple(r) + (0,) for r in sU.basis)
