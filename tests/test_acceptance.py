"""End-to-end acceptance suite.

Each test prints a single `criterion N: pass` line on success (run with -s to
see them); failure of any assertion marks the criterion failed.  All checks
are exact integer arithmetic with zero tolerance; only wall-clock limits are
inequality constraints.
"""

import random
import time

import pytest

from gmtwist.certify import _pairwise_gram
from gmtwist.construct import (
    Parameters,
    block_graph,
    block_intersection_sizes,
    design_lambda,
    jt_design,
    canonical_grassmann,
    pg_design,
    phi_map,
    psi_map,
    split_A_B,
    standard_polarity,
    switching_partition,
    twisted_grassmann,
    verify_2_design,
    verify_ta_rule,
)
from gmtwist.gf import make_field, rank_of_rows, rref_rows
from gmtwist.graph import (
    SwitchingPartition,
    build_graph,
    char_poly,
    check_isomorphism,
    gm_switch,
    intersection_array,
    validate_gm,
    vertex_invariant_distribution,
)
from gmtwist.subspace import (
    apply_polarity,
    contains,
    enumerate_subspaces,
    gaussian_binomial,
    make_polarity,
)


class Pipeline:
    """Everything the criteria need for one (q, e), built once."""

    def __init__(self, q, e):
        self.params = Parameters(q, e)
        self.sigma = standard_polarity(self.params)
        self.G = canonical_grassmann(self.params)
        self.info = switching_partition(self.params, self.sigma)
        self.report = validate_gm(self.G, self.info.partition)
        self.switched = gm_switch(self.G, self.info.partition)


@pytest.fixture(scope="module")
def pipe22():
    return Pipeline(2, 2)


@pytest.fixture(scope="module")
def pipe32():
    return Pipeline(3, 2)


def _done(n, t0, limit):
    elapsed = time.monotonic() - t0
    assert elapsed < limit, f"criterion {n} exceeded {limit}s ({elapsed:.1f}s)"
    print(f"criterion {n}: pass ({elapsed:.2f}s)")


def test_criterion_1_census(pipe22):
    t0 = time.monotonic()
    q, e = 2, 2
    A, B, D = split_A_B(pipe22.params)
    assert pipe22.G.n == 155 == gaussian_binomial(5, 3, 2)
    assert (len(A), len(D), len(B)) == (140, 15, 15)
    hist = pipe22.info.cell_size_histogram()
    assert hist == {4: 15, 8: 10}
    # internal consistency: cell sizes in {q^e, 2 q^e}, total covers the graph
    assert set(hist) <= {q**e, 2 * q**e}
    assert sum(s * c for s, c in hist.items()) + len(D) == gaussian_binomial(5, 3, 2)
    _done(1, t0, 5)


def test_criterion_2_gm_hypothesis(pipe22, pipe32):
    t0 = time.monotonic()
    for pipe, limit in ((pipe22, 5), (pipe32, 120)):
        rep = pipe.report
        assert rep.passed
        n_cells = len(pipe.info.partition.cells)
        n_d = len(pipe.info.partition.exempt)
        # every D-vertex/cell pair classified, none bad
        assert len(rep.classifications) == n_cells * n_d
        assert sum(rep.tallies.values()) == n_cells * n_d
        assert rep.tallies["half"] > 0  # the switch is nontrivial
    assert pipe22.report.tallies == {"zero": 270, "half": 60, "full": 45}
    _done(2, t0, 125)


def test_criterion_3_cospectrality(pipe22, pipe32):
    t0 = time.monotonic()
    p1 = char_poly(pipe22.G)
    p2 = char_poly(pipe22.switched)
    assert p1 == p2 and p1.degree == 155
    assert time.monotonic() - t0 < 60, "exact char poly at (2,2) over budget"
    a1 = intersection_array(pipe32.G)
    a2 = intersection_array(pipe32.switched)
    assert a1.is_drg and a2.is_drg
    assert a1.array == a2.array
    assert a1.array.b == (156, 108) and a1.array.c == (1, 16)
    _done(3, t0, 300)


def test_criterion_4_switched_adjacency_rule(pipe22, pipe32):
    t0 = time.monotonic()
    r22 = verify_ta_rule(pipe22.switched, pipe22.params, pipe22.sigma)
    assert r22.ok and r22.pairs_checked == 140 * 15 and not r22.violations
    assert time.monotonic() - t0 < 10
    r32 = verify_ta_rule(pipe32.switched, pipe32.params, pipe32.sigma)
    assert r32.ok and r32.pairs_checked == 1170 * 40 and not r32.violations
    _done(4, t0, 300)


def test_criterion_5_designs(pipe22, pipe32):
    t0 = time.monotonic()
    for pipe, v, k in ((pipe22, 31, 7), (pipe32, 121, 13)):
        lam = design_lambda(pipe.params)
        for D in (pg_design(pipe.params), jt_design(pipe.params, pipe.sigma)):
            chk = verify_2_design(D)
            assert chk.ok and (chk.v, chk.k, chk.lam) == (v, k, lam)
    assert design_lambda(pipe22.params) == 7 and design_lambda(pipe32.params) == 13
    # exhaustive block-intersection-size check at (2,2)
    q, e = 2, 2
    allowed = {(q**i - 1) // (q - 1) for i in range(1, e + 1)}
    for D in (pg_design(pipe22.params), jt_design(pipe22.params, pipe22.sigma)):
        assert set(block_intersection_sizes(D)) <= allowed
    _done(5, t0, 300)


def test_criterion_6_block_graph_identity(pipe22, pipe32):
    t0 = time.monotonic()
    for pipe in (pipe22, pipe32):
        q, e = pipe.params.q, pipe.params.e
        s = (q**e - 1) // (q - 1)
        BG = block_graph(pg_design(pipe.params), s)
        assert list(BG.adj) == list(pipe.G.adj)  # bit-exact adjacency equality
    _done(6, t0, 600)


def test_criterion_7_main_theorem(pipe22, pipe32):
    t0 = time.monotonic()
    for pipe in (pipe22, pipe32):
        q, e = pipe.params.q, pipe.params.e
        s = (q**e - 1) // (q - 1)
        delta = block_graph(jt_design(pipe.params, pipe.sigma), s)
        phi = phi_map(pipe.params, pipe.sigma)
        assert phi.injective
        assert check_isomorphism(pipe.switched, delta, phi.mapping).ok
    delta22 = block_graph(jt_design(pipe22.params, pipe22.sigma), 3)
    psi = psi_map(pipe22.params, pipe22.sigma)
    assert psi.injective
    assert check_isomorphism(twisted_grassmann(pipe22.params), delta22, psi.mapping).ok
    _done(7, t0, 600)


def test_criterion_8_non_isomorphism_evidence(pipe22):
    t0 = time.monotonic()
    d_orig = vertex_invariant_distribution(pipe22.G)
    d_sw = vertex_invariant_distribution(pipe22.switched)
    assert d_orig.distinct == 1
    assert d_sw.distinct >= 2
    a1 = intersection_array(pipe22.G)
    a2 = intersection_array(pipe22.switched)
    assert a1.is_drg and a2.is_drg and a1.array == a2.array
    assert a1.array.b == (42, 24) and a1.array.c == (1, 9)
    _done(8, t0, 600)


def test_criterion_9_polarity_independence(pipe22):
    t0 = time.monotonic()
    sigma2 = _pairwise_gram(pipe22.params)
    assert sigma2.gram != pipe22.sigma.gram
    info2 = switching_partition(pipe22.params, sigma2)
    switched2 = gm_switch(pipe22.G, info2.partition)
    assert char_poly(switched2) == char_poly(pipe22.switched)
    assert intersection_array(switched2).array == intersection_array(pipe22.switched).array
    d1 = vertex_invariant_distribution(pipe22.switched)
    d2 = vertex_invariant_distribution(switched2)
    assert sorted(d1.counts.values()) == sorted(d2.counts.values())
    _done(9, t0, 600)


def _random_valid_switching_instance(rng):
    m = rng.choice([4, 6, 8])
    offsets = set()
    for s in range(1, m // 2 + 1):
        if rng.random() < 0.5:
            offsets.add(s)
            offsets.add(m - s)
    nd = rng.randrange(1, 4)
    n = m + nd
    edges = set()
    for u in range(m):
        for v in range(u + 1, m):
            if (v - u) % m in offsets:
                edges.add((u, v))
    for x in range(m, n):
        kind = rng.choice(["zero", "half", "full"])
        if kind == "half":
            targets = rng.sample(range(m), m // 2)
        elif kind == "full":
            targets = list(range(m))
        else:
            targets = []
        for t in targets:
            edges.add((t, x))
        for y in range(m, x):
            if rng.random() < 0.5:
                edges.add((y, x))
    G = build_graph(range(n), lambda u, v: (min(u, v), max(u, v)) in edges)
    P = SwitchingPartition(cells=(tuple(range(m)),), exempt=tuple(range(m, n)))
    return G, P


def test_criterion_10_property_suites(pipe22):
    t0 = time.monotonic()
    # polarity axioms, exhaustive over all subspaces of H at (2,2)
    ctx = make_field(2)
    sigma = make_polarity(ctx, 2)
    subs = [S for k in range(5) for S in enumerate_subspaces(ctx, 4, k)]
    images = {}
    for U in subs:
        sU = apply_polarity(sigma, U)
        assert sU.dim == 4 - U.dim  # dim complement
        assert apply_polarity(sigma, sU) == U  # involution
        images[U] = sU
    for U in subs:
        for W in subs:
            if contains(W, U):
                assert contains(images[U], images[W])  # inclusion reversal

    # gm_switch involution on 200 random valid instances
    rng = random.Random(10**9 + 7)
    for _ in range(200):
        G, P = _random_valid_switching_instance(rng)
        assert gm_switch(gm_switch(G, P), P) == G

    # rref canonicity under 1000 random basis changes
    for q in (2, 3, 4, 5):
        fctx = make_field(q)
        base = [[rng.randrange(q) for _ in range(6)] for _ in range(3)]
        R0, rank0, _ = rref_rows(fctx, base, 6)
        for _ in range(250):
            while True:
                T = [[rng.randrange(q) for _ in range(3)] for _ in range(3)]
                if rank_of_rows(fctx, T, 3) == 3:
                    break
            mixed = [
                [
                    # row i of T @ base over GF(q)
                    _dot(fctx, T[i], [base[t][j] for t in range(3)])
                    for j in range(6)
                ]
                for i in range(3)
            ]
            R, rank, _ = rref_rows(fctx, mixed, 6)
            assert R == R0 and rank == rank0
    _done(10, t0, 600)


def _dot(ctx, xs, ys):
    acc = 0
    for x, y in zip(xs, ys):
        if x and y:
            acc = ctx.add(acc, ctx.mul(x, y))
    return acc
