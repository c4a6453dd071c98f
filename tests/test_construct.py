import random
from itertools import combinations
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gmtwist.construct as construct_mod
import gmtwist.graph as graph_mod
import gmtwist.subspace as subspace_mod
from gmtwist.construct import (
    Design,
    DesignCheck,
    Parameters,
    TaReport,
    _in_hyperplane,
    block_graph,
    block_intersection_sizes,
    design_lambda,
    distorted_block,
    grassmann,
    intersect_hyperplane,
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
    verify_lemma1_counts,
    verify_ta_rule,
)
from gmtwist.errors import DomainError, ParameterError
from gmtwist.graph import Graph, check_equitable, check_isomorphism, gm_switch, mask_of, validate_gm
from gmtwist.subspace import (
    apply_polarity,
    contains,
    dim_intersection,
    enumerate_subspaces,
    gaussian_binomial,
    point_mask,
)
from helpers import mask_contains


def test_parameters_validation():
    p = Parameters(2, 2)
    assert p.n == 5 and p.vertex_count == 155
    assert Parameters(3, 2).vertex_count == 1210
    with pytest.raises(ParameterError):
        Parameters(6, 2)
    with pytest.raises(ParameterError):
        Parameters(2, 0)


def test_grassmann_small():
    G = grassmann(4, 2, 2)
    assert G.n == 35 and G.is_regular() and G.degree(0) == 18
    # sanity against the closed-form valency q [k,1] [n-k,1]
    assert G.degree(0) == 2 * gaussian_binomial(2, 1, 2) * gaussian_binomial(2, 1, 2)
    # k = 1: any two distinct points meet in dim 0, so the graph is complete
    K = grassmann(3, 1, 2)
    assert K.n == 7 and all(K.degree(v) == 6 for v in range(7))


def test_canonical_grassmann_matches_generic(params22):
    G = canonical_grassmann(params22)
    H = grassmann(5, 3, 2)
    assert G.n == H.n == 155 and list(G.adj) == list(H.adj)
    assert G.is_regular() and G.degree(0) == 42


def test_split_counts(params22):
    A, B, D = split_A_B(params22)
    assert (len(A), len(B), len(D)) == (140, 15, 15)
    # A members meet H in dimension e; D members lie inside H
    for W in A[:20]:
        assert intersect_hyperplane(W).dim == 2
    for W in D:
        assert intersect_hyperplane(W) == W
    A3, B3, D3 = split_A_B(Parameters(3, 2))
    assert (len(A3), len(B3), len(D3)) == (1170, 40, 40)


def test_intersect_hyperplane_properties(params22):
    A, _, _ = split_A_B(params22)
    for W in A[:30]:
        U = intersect_hyperplane(W)
        assert contains(W, U)
        assert all(r[-1] == 0 for r in U.basis)
        assert U.dim == W.dim - 1


def test_switching_partition_census(params22, sigma22, info22):
    hist = info22.cell_size_histogram()
    assert hist == {4: 15, 8: 10}
    assert len(info22.partition.cells) == 25
    assert len(info22.partition.exempt) == 15
    # size-4 cells come from isotropic U (sigma-fixed), size-8 from true pairs
    fixed = sum(1 for U, sU in info22.pairs if U == sU)
    assert fixed == 15 and len(info22.pairs) == 25
    info3 = switching_partition(Parameters(3, 2), standard_polarity_3())
    assert info3.cell_size_histogram() == {9: 40, 18: 45}


def standard_polarity_3():
    from gmtwist.construct import standard_polarity

    return standard_polarity(Parameters(3, 2))


def test_gm_hypothesis_and_tallies(G22, info22):
    rep = validate_gm(G22, info22.partition)
    assert rep.passed
    assert rep.tallies == {"zero": 270, "half": 60, "full": 45}
    assert rep.tallies["half"] > 0  # the switch is not the identity


def test_lemma1_singleton_cells(params22):
    # singleton cells are trivially equitable; diagonal lift is q*0 + q^e - 1
    subs = enumerate_subspaces(params22.ctx, 4, 2)
    embedded = [
        U for U in switching_partition(params22, standard_polarity_22()).cells_by_U
    ]
    cells = [[U] for U in sorted(embedded)]
    rep = verify_lemma1_counts(params22, cells)
    assert rep.ok
    for i in range(len(cells)):
        assert rep.lifted_quotient[i][i] == 2 * rep.small_quotient[i][i] + 3
    assert len(subs) == len(embedded) == 35


def standard_polarity_22():
    from gmtwist.construct import standard_polarity

    return standard_polarity(Parameters(2, 2))


def test_lemma1_one_cell(params22, info22):
    # the whole of J_q(2e,e) as one cell: lifted degree q*18 + 3 = 39
    all_U = sorted(info22.cells_by_U)
    rep = verify_lemma1_counts(params22, [all_U])
    assert rep.ok
    assert rep.small_quotient == [[18]] and rep.lifted_quotient == [[39]]


def test_lemma1_pair_cells(params22, sigma22, info22):
    # cells {U, sigma(U)}: equitable because sigma preserves intersection dims
    cells = []
    for U, sU in info22.pairs:
        cells.append([U] if U == sU else [U, sU])
    rep = verify_lemma1_counts(params22, cells)
    assert rep.ok and not rep.mismatches


def test_lemma1_rejects_non_equitable(params22, info22):
    all_U = sorted(info22.cells_by_U)
    lopsided = [all_U[:1] + all_U[2:], [all_U[1]]]
    # {everything-but-one, one} is not equitable for J_2(4,2)
    with pytest.raises(ParameterError):
        verify_lemma1_counts(params22, lopsided)


def test_pre_switch_rule(G22, params22, sigma22, info22):
    # before switching, W1 in C_U is adjacent to W2 in D exactly when W2
    # contains U itself (not sigma(U))
    from gmtwist.subspace import point_mask

    d_masks = {i: point_mask(G22.labels[i]) for i in info22.d_indices}
    for U, members in info22.cells_by_U.items():
        u_mask = point_mask(U)
        for w1 in members:
            for w2, m2 in d_masks.items():
                assert bool(G22.adj[w1] >> w2 & 1) == mask_contains(m2, u_mask)


def test_ta_rule_after_switching(switched22, params22, sigma22):
    rep = verify_ta_rule(switched22, params22, sigma22)
    assert rep.ok and rep.pairs_checked == 140 * 15 and not rep.violations


def test_ta_rule_fails_before_switching(G22, params22, sigma22):
    rep = verify_ta_rule(G22, params22, sigma22)
    assert not rep.ok


def test_twisted_grassmann_structure(params22):
    T = twisted_grassmann(params22)
    assert T.n == 155 and T.is_regular() and T.degree(0) == 42
    A, B, _ = split_A_B(params22)
    na = len(A)
    # A-B adjacency is containment, B-B adjacency is meeting in dim e-2
    for i in range(na, T.n):
        for j in range(na, T.n):
            if i < j:
                expect = dim_intersection(T.labels[i], T.labels[j]) == 0
                assert T.has_edge(i, j) == expect
        for j in range(na):
            assert T.has_edge(i, j) == contains(T.labels[j], T.labels[i])
    with pytest.raises(DomainError):
        twisted_grassmann(Parameters(2, 1))


def test_switched_equals_neither_original(G22, switched22):
    assert switched22 != G22
    assert gm_switch(switched22, switching_partition(Parameters(2, 2), standard_polarity_22()).partition) == G22


# ---------------------------------------------------------------------------
# designs


def test_pg_design(params22):
    D = pg_design(params22)
    chk = verify_2_design(D)
    assert chk.ok and (chk.v, chk.k, chk.lam) == (31, 7, 7)
    assert chk.lam == design_lambda(params22)
    assert len(D.blocks) == 155


def test_jt_design(params22, sigma22):
    D = jt_design(params22, sigma22)
    chk = verify_2_design(D)
    assert chk.ok and (chk.v, chk.k, chk.lam) == (31, 7, 7)
    assert len(D.blocks) == 155
    # the distortion is real: some block is not the point set of any subspace
    geometric_blocks = set(pg_design(params22).blocks)
    assert any(b not in geometric_blocks for b in D.blocks)
    # blocks are canonically sorted by point set
    assert list(D.blocks) == sorted(D.blocks)


def test_designs_at_q3():
    params = Parameters(3, 2)
    from gmtwist.construct import standard_polarity

    sigma = standard_polarity(params)
    for D in (pg_design(params), jt_design(params, sigma)):
        chk = verify_2_design(D)
        assert chk.ok and (chk.v, chk.k, chk.lam) == (121, 13, 13)
        assert chk.lam == design_lambda(params)


def test_verify_2_design_catches_mutations(params22):
    D = pg_design(params22)
    from gmtwist.construct import Design

    # dropping a block breaks pair-count constancy
    broken = Design(D.params, D.points, D.blocks[1:], D.provenance)
    assert not verify_2_design(broken).ok
    # a short block breaks size uniformity
    ragged = Design(D.params, D.points, D.blocks[:-1] + (D.blocks[-1][:-1],), D.provenance)
    assert not verify_2_design(ragged).ok


def test_block_intersection_sizes(params22, sigma22):
    for D in (pg_design(params22), jt_design(params22, sigma22)):
        hist = block_intersection_sizes(D)
        assert set(hist) == {1, 3}
        assert sum(hist.values()) == 155 * 154 // 2


def test_block_graph_identity(params22, sigma22):
    # blocks of the geometric design in generating-subspace order: the
    # size-3 intersection graph is literally the Grassmann graph
    D = pg_design(params22)
    BG = block_graph(D, 3)
    assert list(BG.adj) == list(canonical_grassmann(params22).adj)
    # s larger than the block size gives an edgeless graph
    assert all(m == 0 for m in block_graph(D, 8).adj)


def test_phi_is_isomorphism(params22, sigma22, switched22):
    phi = phi_map(params22, sigma22)
    assert phi.injective
    D = jt_design(params22, sigma22)
    BG = block_graph(D, 3)
    # phi carries the switched graph onto the distorted design's block graph
    assert check_isomorphism(switched22, BG, phi.mapping).ok
    # but it does not carry the unswitched graph there
    assert not check_isomorphism(canonical_grassmann(params22), BG, phi.mapping).ok
    # phi moves some vertex: the two designs differ
    identity_like = all(
        D.blocks[phi.mapping[i]] == pg_design(params22).blocks[i] for i in range(155)
    )
    assert not identity_like


def test_psi_is_isomorphism(params22, sigma22):
    psi = psi_map(params22, sigma22)
    assert psi.injective
    D = jt_design(params22, sigma22)
    BG = block_graph(D, 3)
    assert check_isomorphism(twisted_grassmann(params22), BG, psi.mapping).ok


def test_psi_restricted_to_A_matches_phi(params22, sigma22):
    phi = phi_map(params22, sigma22)
    psi = psi_map(params22, sigma22)
    A, _, _ = split_A_B(params22)
    from gmtwist.construct import _all_vertices

    verts = list(_all_vertices(params22))
    a_positions = [i for i, W in enumerate(verts) if W in set(A)]
    for k, i in enumerate(a_positions):
        assert psi.mapping[k] == phi.mapping[i]


def test_distorted_block_shape(params22, sigma22):
    # the points of sigma(W cap H), and the points of W off H, by containment
    A, _, _ = split_A_B(params22)
    points = enumerate_subspaces(params22.ctx, 5, 1)
    for W in A[:25]:
        sU = apply_polarity(sigma22, intersect_hyperplane(W))
        want = [
            i for i, P in enumerate(points)
            if contains(sU, P) or (contains(W, P) and P.basis[0][-1] != 0)
        ]
        b = distorted_block(params22, sigma22, W)
        assert len(want) == 7 and b == mask_of(want)


# ---------------------------------------------------------------------------
# the Grassmann adjacency: a clique route independent of the point masks


def _grassmann_by_definition(verts):
    """Adjacency rows: W1 != W2 adjacent when dim(W1 cap W2) = k - 1, by rank."""
    k = verts[0].dim
    return [
        mask_of(j for j, W2 in enumerate(verts) if j != i and dim_intersection(W1, W2) == k - 1)
        for i, W1 in enumerate(verts)
    ]


@pytest.mark.parametrize("n,k,q", [(4, 2, 2), (4, 2, 3), (5, 3, 2)])
def test_grassmann_clique_route_matches_definition(n, k, q):
    G = grassmann(n, k, q)
    assert list(G.adj) == _grassmann_by_definition(G.labels)
    assert G.is_regular()
    assert G.degree(0) == q * gaussian_binomial(k, 1, q) * gaussian_binomial(n - k, 1, q)


@pytest.mark.parametrize("q", [2, 3])
def test_lemma1_small_graph_matches_definition(q, monkeypatch):
    # lemma 1's J_q(2e, e) on the e-subspaces of H, embedded in V
    params = Parameters(q, 2)
    built = []
    real = construct_mod._grassmann_rows

    def spy(verts):
        rows = real(verts)
        built.append((verts, rows))
        return rows

    monkeypatch.setattr(construct_mod, "_grassmann_rows", spy)
    info = switching_partition(params, standard_polarity(params))
    assert verify_lemma1_counts(params, [sorted(info.cells_by_U)]).ok
    [(verts, rows)] = [(verts, rows) for verts, rows in built if verts[0].dim == 2]
    assert len(verts) == gaussian_binomial(4, 2, q) and all(W.ambient == 5 for W in verts)
    assert rows == _grassmann_by_definition(verts)


def test_criterion_6_grassmann_uses_no_point_mask_or_pair_kernel(monkeypatch):
    # the block-graph identity compares the pair kernel over point masks with
    # this graph, so it must be built without either
    def forbidden(*args, **kwargs):
        raise AssertionError("the Grassmann adjacency used a point mask or the pair kernel")

    for module in (construct_mod, graph_mod, subspace_mod):
        for name in ("point_mask", "pair_counts", "pair_count_graph"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    canonical_grassmann.cache_clear()
    try:
        G2 = canonical_grassmann(Parameters(2, 2))
        G3 = canonical_grassmann(Parameters(3, 2))
    finally:
        canonical_grassmann.cache_clear()
    assert (G2.n, G2.degree(0)) == (155, 42) and G2.is_regular()
    assert (G3.n, G3.degree(0)) == (1210, 156) and G3.is_regular()
    assert list(G2.adj) == _grassmann_by_definition(G2.labels)
    monkeypatch.undo()
    assert G2.adj == block_graph(pg_design(Parameters(2, 2)), 3).adj
    assert G3.adj == block_graph(pg_design(Parameters(3, 2)), 4).adj


# the pair loops that built the twisted graph and the block-intersection
# histogram before the pair kernel, kept as references


def _reference_twisted_rows(params):
    e = params.e
    A, B, _ = split_A_B(params)
    masks = [point_mask(w) for w in A + B]
    na = len(A)
    adj = [0] * len(masks)
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            common = (masks[i] & masks[j]).bit_count()
            if j < na:  # A-A
                hit = common == gaussian_binomial(e, 1, params.q)
            elif i < na:  # A-B: W_i contains W_j
                hit = mask_contains(masks[i], masks[j])
            else:  # B-B
                hit = common == gaussian_binomial(e - 2, 1, params.q)
            if hit:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def _reference_histogram(D):
    masks = D.block_masks()
    hist = {}
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            s = (masks[i] & masks[j]).bit_count()
            hist[s] = hist.get(s, 0) + 1
    return hist


@pytest.mark.parametrize("q", [2, 3])
def test_pair_kernel_constructions_match_pair_loops(q):
    params = Parameters(q, 2)
    sigma = standard_polarity(params)
    assert list(twisted_grassmann(params).adj) == _reference_twisted_rows(params)
    for D in (pg_design(params), jt_design(params, sigma)):
        assert block_intersection_sizes(D) == _reference_histogram(D)


# the bit loops of the switched-adjacency rule and the 2-design check before
# they moved onto the pair kernel, kept as references


def _reference_ta_rule(switched, params, sigma):
    info = switching_partition(params, sigma)
    d_masks = {i: point_mask(switched.labels[i]) for i in info.d_indices}
    checked = 0
    violations = []
    for U, members in info.cells_by_U.items():
        sU_mask = point_mask(apply_polarity(sigma, U))
        for w1 in members:
            for w2, m2 in d_masks.items():
                checked += 1
                if mask_contains(m2, sU_mask) != bool(switched.adj[w1] >> w2 & 1):
                    violations.append((w1, w2))
    return TaReport(not violations, checked, violations)


def _reference_2_design(D):
    if not D.blocks:
        return DesignCheck(False, D.v, None, None, ("no blocks",))
    k = len(D.blocks[0])
    for b in D.blocks:
        if len(b) != k:
            return DesignCheck(False, D.v, None, None, ("non-uniform block size", len(b), k))
    counts = {}
    for b in D.blocks:
        for x in range(len(b)):
            for y in range(x + 1, len(b)):
                counts[(b[x], b[y])] = counts.get((b[x], b[y]), 0) + 1
    if len(counts) != D.v * (D.v - 1) // 2:
        return DesignCheck(False, D.v, k, None, ("some point pair in no block",))
    values = set(counts.values())
    if len(values) != 1:
        lo, hi = min(values), max(values)
        bad = next(p for p, c in counts.items() if c == hi)
        return DesignCheck(False, D.v, k, None, ("pair count not constant", bad, lo, hi))
    return DesignCheck(True, D.v, k, values.pop(), None)


def _flip(G, pairs):
    rows = list(G.adj)
    for a, b in pairs:
        rows[a] ^= 1 << b
        rows[b] ^= 1 << a
    return Graph(G.labels, rows)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 154), st.integers(0, 154)), max_size=6),
    st.booleans(),
    st.sampled_from([1, 200, 1 << 16]),
)
def test_ta_rule_matches_bit_loop(switched22, params22, sigma22, G22, flips, a_d_only, panel_bytes):
    # flipped pairs: A-D pairs only, which the rule reads, or any pairs
    d = {i for i, W in enumerate(G22.labels) if _in_hyperplane(W)}
    if a_d_only:
        flips = [(a, b) for a, b in flips if (a in d) != (b in d)]
    tampered = _flip(switched22, [(a, b) for a, b in flips if a != b])
    with patch.object(graph_mod, "PANEL_BYTES", panel_bytes):
        for H in (tampered, switched22, G22):
            assert verify_ta_rule(H, params22, sigma22) == _reference_ta_rule(H, params22, sigma22)


def test_ta_rule_matches_bit_loop_at_q3():
    params = Parameters(3, 2)
    sigma = standard_polarity(params)
    G = canonical_grassmann(params)
    switched = gm_switch(G, switching_partition(params, sigma).partition)
    for H in (switched, G, _flip(switched, [(0, 1200), (5, 1209), (7, 8)])):
        assert verify_ta_rule(H, params, sigma) == _reference_ta_rule(H, params, sigma)
    assert verify_ta_rule(switched, params, sigma).ok


@st.composite
def designs(draw):
    """Designs on v points: random uniform blocks, every k-subset of the
    points (a 2-design) or all but one, or random blocks with one of another
    size."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "complete", "complete-minus-one", "ragged"]))
    if kind.startswith("complete"):
        v = draw(st.integers(2, 8))
        k = draw(st.integers(2, v))
        blocks = list(combinations(range(v), k))
        if kind == "complete-minus-one" and len(blocks) > 1:
            del blocks[rng.randrange(len(blocks))]
    else:
        v = draw(st.integers(2, 40))
        k = draw(st.integers(0, v))
        blocks = [tuple(sorted(rng.sample(range(v), k))) for _ in range(draw(st.integers(1, 30)))]
        if kind == "ragged":
            blocks[rng.randrange(len(blocks))] = tuple(sorted(rng.sample(range(v), (k + 1) % (v + 1))))
    rng.shuffle(blocks)
    return Design(Parameters(2, 2), tuple(range(v)), tuple(blocks), kind)


@settings(max_examples=150, deadline=None)
@given(designs(), st.sampled_from([1, 64, 1 << 16]))
def test_verify_2_design_matches_bit_loop(D, panel_bytes):
    with patch.object(graph_mod, "PANEL_BYTES", panel_bytes):
        assert verify_2_design(D) == _reference_2_design(D)


@pytest.mark.parametrize("q", [2, 3])
def test_verify_2_design_matches_bit_loop_on_the_designs(q):
    params = Parameters(q, 2)
    sigma = standard_polarity(params)
    for D in (pg_design(params), jt_design(params, sigma)):
        moved = D.blocks[0][1:] + (next(p for p in range(D.v) if p not in D.blocks[0]),)
        for blocks in (D.blocks, D.blocks[1:], (tuple(sorted(moved)),) + D.blocks[1:]):
            E = Design(params, D.points, blocks, D.provenance)
            assert verify_2_design(E) == _reference_2_design(E)
        assert verify_2_design(D).ok and not verify_2_design(E).ok
