import random
from unittest.mock import patch

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gmtwist.graph as graph_mod
from helpers import build_graph
from gmtwist.charpoly import char_poly_exact
from gmtwist.construct import Parameters, canonical_grassmann, standard_polarity, switching_partition
from gmtwist.errors import DomainError, GMHypothesisError, ParameterError
from gmtwist.graph import (
    Graph,
    SwitchingPartition,
    apply_gm_switch,
    bits_of,
    char_poly,
    check_equitable,
    check_isomorphism,
    gm_switch,
    intersection_array,
    mask_of,
    pair_count_graph,
    pair_counts,
    validate_gm,
    vertex_invariant_distribution,
    vertex_invariants,
)


def _graph_from_edges(n, edges):
    return build_graph(range(n), lambda u, v: (u, v) in edges or (v, u) in edges)


def _cycle(n):
    return build_graph(range(n), lambda u, v: (u - v) % n in (1, n - 1))


def _complete(n):
    return build_graph(range(n), lambda u, v: True)


def test_build_graph_basics():
    K3 = _complete(3)
    assert K3.adj == (0b110, 0b101, 0b011)
    assert K3.is_regular() and K3.degree(0) == 2 and K3.edge_count() == 3
    empty = build_graph(range(4), lambda u, v: False)
    assert empty.adj == (0, 0, 0, 0) and empty.edge_count() == 0
    with pytest.raises(ParameterError):
        build_graph(["a", "a"], lambda u, v: False)


def test_bits_and_masks_roundtrip():
    assert bits_of(0b10110) == [1, 2, 4]
    assert mask_of([1, 2, 4]) == 0b10110
    assert bits_of(0) == []


def test_check_equitable():
    C4 = _cycle(4)
    # singleton cells are always equitable; quotient is the adjacency matrix
    r = check_equitable(C4, [[0], [1], [2], [3]])
    assert r.equitable and r.quotient == [
        [0, 1, 0, 1],
        [1, 0, 1, 0],
        [0, 1, 0, 1],
        [1, 0, 1, 0],
    ]
    # one cell covering a regular graph is equitable with quotient [[k]]
    r = check_equitable(C4, [[0, 1, 2, 3]])
    assert r.equitable and r.quotient == [[4 // 2]]
    # a path is not regular, so the one-cell partition fails
    P3 = _graph_from_edges(3, {(0, 1), (1, 2)})
    r = check_equitable(P3, [[0, 1, 2]])
    assert not r.equitable and r.violation is not None
    with pytest.raises(ParameterError):
        check_equitable(C4, [[0, 1], [1, 2, 3]])
    with pytest.raises(ParameterError):
        check_equitable(C4, [[0, 1]], domain=[0, 1, 2])


def test_validate_gm_four_cycle():
    # C4 with cell {0,2} and D = {1,3}: each D-vertex sees both cell vertices,
    # so every tally is "full" and the hypothesis holds (switch is identity)
    C4 = _cycle(4)
    P = SwitchingPartition(cells=((0, 2),), exempt=(1, 3))
    rep = validate_gm(C4, P)
    assert rep.passed and rep.tallies == {"zero": 0, "half": 0, "full": 2}
    assert gm_switch(C4, P) == C4


def test_validate_gm_half_case_and_failure():
    # star K_{1,4} with cell = leaves, D = {center}: center sees all leaves (full)
    star = _graph_from_edges(5, {(0, 1), (0, 2), (0, 3), (0, 4)})
    P = SwitchingPartition(cells=((1, 2, 3, 4),), exempt=(0,))
    rep = validate_gm(star, P)
    assert rep.passed and rep.tallies["full"] == 1

    # remove two leaves' edges -> center sees exactly half: switch complements
    half = _graph_from_edges(5, {(0, 1), (0, 2)})
    # leaves form an edgeless (0-regular) cell, equitable
    rep = validate_gm(half, P)
    assert rep.passed and rep.tallies["half"] == 1
    switched = gm_switch(half, P)
    assert sorted(switched.neighbors(0)) == [3, 4]

    # one leaf -> count 1 of 4 is neither 0, half, nor full
    bad = _graph_from_edges(5, {(0, 1)})
    rep = validate_gm(bad, P)
    assert not rep.passed and rep.violations
    with pytest.raises(GMHypothesisError):
        gm_switch(bad, P)

    with pytest.raises(ParameterError):
        SwitchingPartition(cells=((0, 1),), exempt=(1,)).validate_structure(5)
    with pytest.raises(ParameterError):
        SwitchingPartition(cells=((0, 1),), exempt=(2,)).validate_structure(5)


def _random_valid_switching_instance(rng):
    """Circulant cell (vertex-transitive, hence equitable as a single cell)
    plus D-vertices attached to none / a half / all of the cell."""
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
            targets = range(m)
        else:
            targets = []
        for t in targets:
            edges.add((t, x))
        for y in range(m, x):
            if rng.random() < 0.5:
                edges.add((y, x))
    G = _graph_from_edges(n, edges)
    P = SwitchingPartition(cells=(tuple(range(m)),), exempt=tuple(range(m, n)))
    return G, P


def test_gm_switch_random_instances_involution_and_cospectral():
    rng = random.Random(2024)
    for _ in range(30):
        G, P = _random_valid_switching_instance(rng)
        rep = validate_gm(G, P)
        assert rep.passed
        H = gm_switch(G, P)
        assert apply_gm_switch(G, P) == H  # the checked switch is validate + apply
        assert gm_switch(H, P) == G  # involution
        assert char_poly(G) == char_poly(H)  # switching preserves the spectrum


def test_intersection_array():
    K5 = _complete(5)
    r = intersection_array(K5)
    assert r.is_drg and r.array.diameter == 1 and r.array.b == (4,) and r.array.c == (1,)

    C6 = _cycle(6)
    r = intersection_array(C6)
    assert r.is_drg and r.array.b == (2, 1, 1) and r.array.c == (1, 1, 2)

    # K4 minus an edge is not distance-regular
    notdrg = _graph_from_edges(4, {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)})
    r = intersection_array(notdrg)
    assert not r.is_drg and r.failure is not None

    with pytest.raises(DomainError):
        intersection_array(_graph_from_edges(4, {(0, 1), (2, 3)}))


# Plain bit-loop implementations: the references the popcount kernels of
# intersection_array and the clique-count invariant are checked against.


def _bfs_layers(G: Graph, root: int) -> list[int]:
    """Bitmask of vertices at each distance from root; raises DomainError if disconnected."""
    layers = [1 << root]
    seen = 1 << root
    while True:
        frontier = 0
        for v in bits_of(layers[-1]):
            frontier |= G.adj[v]
        frontier &= ~seen
        if not frontier:
            break
        layers.append(frontier)
        seen |= frontier
    if seen.bit_count() != G.n:
        raise DomainError("graph is disconnected")
    return layers


def _reference_intersection_array(G: Graph) -> graph_mod.DRGResult:
    """BFS from every vertex; returns the array if the (c_j, a_j, b_j) counts are
    global constants, else the first inconsistency."""
    if G.n == 0:
        raise DomainError("empty graph")
    ref_layers = _bfs_layers(G, 0)
    d = len(ref_layers) - 1
    b: list[int | None] = [None] * (d + 1)
    c: list[int | None] = [None] * (d + 1)
    for root in range(G.n):
        layers = _bfs_layers(G, root)
        if len(layers) - 1 != d:
            return graph_mod.DRGResult(False, None, (root, None, None, "diameter", len(layers) - 1, d))
        for j, layer in enumerate(layers):
            below = layers[j - 1] if j > 0 else 0
            above = layers[j + 1] if j < d else 0
            for v in bits_of(layer):
                row = G.adj[v]
                cj = (row & below).bit_count()
                bj = (row & above).bit_count()
                if j > 0:
                    if c[j] is None:
                        c[j] = cj
                    elif c[j] != cj:
                        return graph_mod.DRGResult(False, None, (root, v, j, "c", cj, c[j]))
                if j < d:
                    if b[j] is None:
                        b[j] = bj
                    elif b[j] != bj:
                        return graph_mod.DRGResult(False, None, (root, v, j, "b", bj, b[j]))
    arr = graph_mod.IntersectionArray(d, tuple(b[:d]), tuple(c[1:]))  # type: ignore[arg-type]
    return graph_mod.DRGResult(True, arr, None)


def _clique_counts(G: Graph, v: int) -> tuple[int, int]:
    """(triangles through v, 4-cliques through v)."""
    nbrs = G.neighbors(v)
    nmask = G.adj[v]
    tri2 = 0
    k4_3 = 0
    for u in nbrs:
        common_u = G.adj[u] & nmask
        tri2 += common_u.bit_count()
        for w in bits_of(common_u):
            if w > u:
                k4_3 += (common_u & G.adj[w]).bit_count()
    return tri2 // 2, k4_3 // 3


def _distances(G, root):
    dist = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for w in G.neighbors(u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return [dist[v] for v in range(G.n)]


def _check_witness(G, failure):
    """Recompute a reported failure (root, vertex, distance, kind, got, expected)
    from plain BFS distances: it must be a real inconsistency."""
    root, v, j, kind, got, expected = failure
    d0 = _distances(G, 0)
    dr = _distances(G, root)
    assert got != expected
    if kind == "diameter":
        assert (got, expected) == (max(dr), max(d0))
        return
    step = -1 if kind == "c" else 1
    assert kind in ("c", "b") and dr[v] == j

    def count(dist, x):
        return sum(dist[w] == dist[x] + step for w in G.neighbors(x))

    assert got == count(dr, v)
    first = min(x for x in range(G.n) if d0[x] == j)
    assert expected == count(d0, first)


def _assert_matches_reference(G):
    """The kernel agrees with the reference, including on DomainError; a
    reported failure is checked by hand."""
    try:
        ref = _reference_intersection_array(G)
    except DomainError:
        with pytest.raises(DomainError):
            intersection_array(G)
        return None
    ours = intersection_array(G)
    assert (ours.is_drg, ours.array) == (ref.is_drg, ref.array)
    assert ours.failure == ref.failure
    if not ours.is_drg:
        _check_witness(G, ours.failure)
    return ours


@st.composite
def random_graphs(draw, max_n=70):
    n = draw(st.integers(1, max_n))
    p = draw(st.sampled_from([0.05, 0.2, 0.5, 0.9, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    return _graph_from_edges(n, edges)


def _circulant(n, offsets):
    return build_graph(range(n), lambda u, v: min((u - v) % n, (v - u) % n) in offsets)


@settings(max_examples=60, deadline=None)
@given(random_graphs())
def test_intersection_array_matches_reference_on_random_graphs(G):
    _assert_matches_reference(G)


@settings(max_examples=40, deadline=None)
@given(st.integers(5, 40), st.sets(st.integers(1, 20), min_size=1, max_size=4))
def test_intersection_array_on_regular_circulants(n, offsets):
    # regular and vertex-transitive, but mostly not distance-regular
    _assert_matches_reference(_circulant(n, {o for o in offsets if o <= n // 2}))


def test_intersection_array_regular_non_drg_witness():
    # the pentagonal prism is 3-regular and vertex-transitive, not distance-regular
    prism = _graph_from_edges(
        10, {(i, (i + 1) % 5) for i in range(5)} | {(5 + i, 5 + (i + 1) % 5) for i in range(5)}
        | {(i, i + 5) for i in range(5)}
    )
    r = _assert_matches_reference(prism)
    assert prism.is_regular() and not r.is_drg
    # each kind of witness: a c count, a b count and an eccentricity
    kinds = {}
    for G in (
        prism,
        _graph_from_edges(4, {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)}),  # K4 minus an edge
        _graph_from_edges(4, {(0, 1), (0, 2), (0, 3)}),  # star
        _graph_from_edges(5, {(0, 1), (1, 2), (2, 3), (3, 4)}),  # path
        _graph_from_edges(4, {(0, 1), (0, 2), (2, 3)}),  # path from an inner vertex
    ):
        r = _assert_matches_reference(G)
        kinds[r.failure[3]] = r.failure
    assert set(kinds) == {"c", "b", "diameter"}


def test_intersection_array_domain_errors():
    with pytest.raises(DomainError):
        intersection_array(Graph([], []))
    with pytest.raises(DomainError):
        intersection_array(_graph_from_edges(4, {(0, 1), (2, 3)}))
    with pytest.raises(DomainError):
        intersection_array(build_graph(range(3), lambda u, v: False))
    # disconnected at a word boundary: two cliques of 64 and 1 vertices
    with pytest.raises(DomainError):
        intersection_array(build_graph(range(65), lambda u, v: u < 64 and v < 64))
    single = intersection_array(Graph([0], [0]))
    assert single.is_drg and single.array.diameter == 0 and single.array.b == ()


@pytest.mark.parametrize("n", [3, 4, 9, 63, 64, 65])
def test_intersection_array_known_families(n):
    r = intersection_array(_complete(n))
    assert r.is_drg and (r.array.b, r.array.c) == ((n - 1,), (1,))
    d = n // 2
    r = intersection_array(_cycle(n))
    assert r.is_drg and r.array.b == (2,) + (1,) * (d - 1)
    assert r.array.c == (1,) * (d - 1) + ((2,) if n % 2 == 0 else (1,))
    petersen = nx.petersen_graph()
    P = _graph_from_edges(10, set(petersen.edges()))
    r = intersection_array(P)
    assert r.is_drg and (r.array.b, r.array.c) == ((3, 2), (1, 1))


@pytest.mark.parametrize("n", [63, 64, 65])
def test_intersection_array_panel_boundaries(n, monkeypatch):
    rng = random.Random(n)
    graphs = [
        _cycle(n),
        _complete(n),
        _circulant(n, {1, 3}),
        _graph_from_edges(n, {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.08}
                          | {(i, i + 1) for i in range(n - 1)}),
    ]
    # K_{n-2,2} and the star K_{n-1,1}, larger part first: every root of the
    # larger part agrees with root 0, so the first failing root is n-2 ("b")
    # or n-1 ("diameter"), in the last panel
    late = [
        build_graph(range(n), lambda u, v: (u < n - 2) != (v < n - 2)),
        build_graph(range(n), lambda u, v: (u < n - 1) != (v < n - 1)),
    ]
    graphs += late
    expected = [_assert_matches_reference(G) for G in graphs]
    assert [r.failure[:4:3] for r in expected[-2:]] == [(n - 2, "b"), (n - 1, "diameter")]
    for panel_bytes in (1, 8 * n * 2, 8 * n * 7 + 5):
        monkeypatch.setattr(graph_mod, "PANEL_BYTES", panel_bytes)
        for G, want in zip(graphs, expected):
            got = intersection_array(G)
            assert (got.is_drg, got.array, got.failure) == (want.is_drg, want.array, want.failure)


def _networkx_clique_counts(G):
    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from((u, v) for u in range(G.n) for v in G.neighbors(u) if u < v)
    tri = nx.triangles(H)
    k4 = [0] * G.n
    for clique in nx.enumerate_all_cliques(H):
        if len(clique) == 4:
            for v in clique:
                k4[v] += 1
        elif len(clique) > 4:
            break
    return [(tri[v], k4[v]) for v in range(G.n)]


@settings(max_examples=40, deadline=None)
@given(random_graphs(max_n=40))
def test_clique_counts_match_reference_and_networkx(G):
    want = [_clique_counts(G, v) for v in range(G.n)]
    assert vertex_invariants(G, "clique-counts") == want
    assert want == _networkx_clique_counts(G)


def test_clique_counts_on_wide_neighbourhoods(monkeypatch):
    # neighbourhoods of 64 and more vertices span several packed words
    rng = random.Random(11)
    n = 80
    edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.9}
    G = _graph_from_edges(n, edges | {(0, v) for v in range(1, n)})
    want = [_clique_counts(G, v) for v in range(G.n)]
    assert G.degree(0) == 79 and vertex_invariants(G, "clique-counts") == want
    assert vertex_invariants(_complete(66), "clique-counts") == [(2080, 43680)] * 66
    # one vertex per chunk
    monkeypatch.setattr(graph_mod, "NBHD_STACK_BYTES", 1)
    assert vertex_invariants(G, "clique-counts") == want


def test_vertex_invariants():
    C6 = _cycle(6)
    d = vertex_invariant_distribution(C6)
    assert d.distinct == 1 and d.invariant == "nbhd-charpoly"

    star = _graph_from_edges(4, {(0, 1), (0, 2), (0, 3)})
    d = vertex_invariant_distribution(star)
    assert d.distinct == 2 and sorted(d.counts.values()) == [1, 3]

    with pytest.raises(ParameterError):
        vertex_invariant_distribution(C6, invariant="spectra")


def test_neighbourhood_charpolys_match_per_vertex_polys(monkeypatch):
    # mixed degrees, an isolated vertex, and a vertex whose neighbourhood is edgeless
    rng = random.Random(5)
    edges = {(u, v) for u in range(1, 14) for v in range(u + 1, 14) if rng.random() < 0.45}
    G = _graph_from_edges(15, edges | {(14, 1)})
    expected = []
    for v in range(G.n):
        nbrs = G.neighbors(v)
        sub = [mask_of(i for i, w in enumerate(nbrs) if G.has_edge(u, w)) for u in nbrs]
        expected.append(char_poly_exact(sub, len(nbrs)))
    assert len(set(G.degrees())) > 3 and G.degree(0) == 0 and G.degree(14) == 1
    assert vertex_invariants(G, "nbhd-charpoly") == expected
    # one vertex per neighbourhood chunk
    monkeypatch.setattr(graph_mod, "NBHD_STACK_BYTES", 1)
    assert vertex_invariants(G, "nbhd-charpoly") == expected


def _classes(values):
    groups = {}
    for v, val in enumerate(values):
        groups.setdefault(val, set()).add(v)
    return sorted(groups.values(), key=len)


def test_local_spectra_separate_the_two_orbits(G22, switched22, info22):
    # Bang-Fujisaki-Koolen: the local graphs of the twisted Grassmann graph have
    # two spectra, one on the A-type and one on the D-type vertices
    assert len(_classes(vertex_invariants(G22, "nbhd-charpoly"))) == 1
    d_type = set(info22.d_indices)
    a_type = {v for cell in info22.partition.cells for v in cell}
    assert (len(a_type), len(d_type)) == (140, 15)
    assert _classes(vertex_invariants(switched22, "nbhd-charpoly")) == [d_type, a_type]


def test_flipped_edge_changes_char_poly_and_local_spectra(switched22):
    u, v = 0, bits_of(switched22.adj[0])[0]
    rows = list(switched22.adj)
    rows[u] ^= 1 << v
    rows[v] ^= 1 << u
    tampered = Graph(switched22.labels, rows)
    assert char_poly(tampered) != char_poly(switched22)
    assert (
        vertex_invariant_distribution(tampered).counts
        != vertex_invariant_distribution(switched22).counts
    )
    assert intersection_array(switched22).is_drg
    r = intersection_array(tampered)
    assert not r.is_drg
    _check_witness(tampered, r.failure)
    assert r.failure[0] == _reference_intersection_array(tampered).failure[0]
    assert (
        vertex_invariant_distribution(tampered, "clique-counts").counts
        != vertex_invariant_distribution(switched22, "clique-counts").counts
    )


@pytest.fixture(scope="module")
def grassmann32():
    params = Parameters(3, 2)
    G = canonical_grassmann(params)
    info = switching_partition(params, standard_polarity(params))
    return G, gm_switch(G, info.partition), info


def test_clique_counts_separate_the_two_orbits_at_q3(grassmann32):
    # the A-type and D-type vertices of the twisted Grassmann graph at (3,2)
    G, switched, info = grassmann32
    assert len(_classes(vertex_invariants(G, "clique-counts"))) == 1
    d_type = set(info.d_indices)
    a_type = {v for cell in info.partition.cells for v in cell}
    assert (len(a_type), len(d_type)) == (1170, 40)
    assert _classes(vertex_invariants(switched, "clique-counts")) == [d_type, a_type]
    dist = vertex_invariant_distribution(switched, "clique-counts")
    assert sorted(dist.counts.values(), reverse=True) == [1170, 40]


def test_check_isomorphism():
    C5 = _cycle(5)
    assert check_isomorphism(C5, C5, [0, 1, 2, 3, 4]).ok
    # rotation is an automorphism
    assert check_isomorphism(C5, C5, [1, 2, 3, 4, 0]).ok
    # a transposition breaking the cycle is not
    r = check_isomorphism(C5, C5, [1, 0, 2, 3, 4])
    assert not r.ok and r.violation is not None
    with pytest.raises(ParameterError):
        check_isomorphism(C5, C5, [0, 0, 1, 2, 3])
    with pytest.raises(ParameterError):
        check_isomorphism(C5, _cycle(4), [0, 1, 2, 3])


def test_char_poly_and_cospectral():
    K3 = _complete(3)
    assert char_poly(K3).coeffs == (-2, -3, 0, 1)
    assert char_poly(K3) == char_poly(K3)
    assert char_poly(K3) == char_poly(_cycle(3))
    assert char_poly(K3) != char_poly(_graph_from_edges(3, {(0, 1)}))
    assert char_poly(K3) != char_poly(_complete(4))
    # K_{1,4} and C_4 plus an isolated vertex: the classic cospectral pair
    star = _graph_from_edges(5, {(0, 1), (0, 2), (0, 3), (0, 4)})
    c4_k1 = _graph_from_edges(5, {(0, 1), (1, 2), (2, 3), (3, 0)})
    assert char_poly(star) == char_poly(c4_k1)


def test_graph_equality_and_immutability():
    K3 = _complete(3)
    rows = list(K3.adj)
    cp = Graph(K3.labels, rows)
    assert cp == K3 and cp is not K3
    rows[0] = 0  # the graph holds its own tuple of rows
    assert cp == K3 and isinstance(cp.adj, tuple)
    assert K3.index(1) == 1
    assert K3.has_edge(0, 1) and not K3.has_edge(0, 0)
    with pytest.raises(TypeError):
        K3.adj[0] ^= 2


def test_cached_grassmann_rejects_item_assignment():
    params = Parameters(2, 2)
    G = canonical_grassmann(params)
    before = G.adj[0]
    with pytest.raises(TypeError):
        G.adj[0] ^= 2
    assert canonical_grassmann(params).adj[0] == before


# ---------------------------------------------------------------------------
# pair kernel: the Python pair loops it replaced are the references


def _reference_pair_graph(masks, target):
    """Adjacency rows: i != j adjacent when |masks[i] & masks[j]| == target(i, j)."""
    n = len(masks)
    adj = [0] * n
    for i in range(n):
        mi = masks[i]
        for j in range(i + 1, n):
            if (mi & masks[j]).bit_count() == target(i, j):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def _reference_pair_counts(masks):
    return [[(a & b).bit_count() for b in masks] for a in masks]


@st.composite
def mask_families(draw):
    nbits = draw(st.sampled_from([1, 7, 63, 64, 65, 130]) | st.integers(1, 200))
    n = draw(st.integers(0, 40))
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    masks = [sum(1 << b for b in range(nbits) if rng.random() < density) for _ in range(n)]
    return nbits, masks


def _panels(masks, nbits):
    got = []
    for lo, counts in pair_counts(masks, masks, nbits):
        assert lo == len(got) and counts.dtype == np.int32
        got += counts.tolist()
    return got


def _check_pair_kernel(masks, nbits):
    n = len(masks)
    classes = [(i * 7) % 2 for i in range(n)]
    targets = [[1, 2], [2, 0]]
    want_graph = _reference_pair_graph(masks, lambda i, j: targets[classes[i]][classes[j]])
    assert _panels(masks, nbits) == _reference_pair_counts(masks)
    G = pair_count_graph(range(n), masks, nbits, targets, classes)
    assert G.adj == tuple(want_graph)


@settings(max_examples=80, deadline=None)
@given(mask_families(), st.sampled_from([1, 2, 3, None]))
def test_pair_kernel_matches_pair_loops(family, rows_per_panel):
    nbits, masks = family
    # a bound of one byte gives panels of one row; 8n k bytes, k rows
    old = graph_mod.PANEL_BYTES
    if rows_per_panel is not None:
        graph_mod.PANEL_BYTES = 1 if rows_per_panel == 1 else 8 * len(masks) * rows_per_panel + 5
    try:
        _check_pair_kernel(masks, nbits)
    finally:
        graph_mod.PANEL_BYTES = old


@pytest.mark.parametrize("nbits", [63, 64, 65])
def test_pair_kernel_panel_splits_at_word_boundaries(nbits, monkeypatch):
    rng = random.Random(nbits)
    masks = [rng.getrandbits(nbits) for _ in range(37)]
    masks += [(1 << nbits) - 1, 1 << (nbits - 1), 0]
    for panel_bytes in (1, 8 * len(masks), 8 * len(masks) * 4, 8 * len(masks) * 7 + 3, 1 << 16):
        monkeypatch.setattr(graph_mod, "PANEL_BYTES", panel_bytes)
        _check_pair_kernel(masks, nbits)


def test_pair_kernel_two_families(monkeypatch):
    rng = random.Random(3)
    for nbits in (1, 63, 64, 65, 130):
        left = [rng.getrandbits(nbits) for _ in range(23)] + [0, (1 << nbits) - 1]
        right = [rng.getrandbits(nbits) for _ in range(9)]
        want = [[(a & b).bit_count() for b in right] for a in left]
        for panel_bytes in (1, 8 * len(right) * 3, 1 << 16):
            monkeypatch.setattr(graph_mod, "PANEL_BYTES", panel_bytes)
            got = []
            for lo, counts in pair_counts(left, right, nbits):
                assert lo == len(got) and counts.shape[1] == len(right)
                got += counts.tolist()
            assert got == want
    assert list(pair_counts([], [1], 1)) == [] and [c.shape for _, c in pair_counts([1], [], 1)] == [(1, 0)]


# ---------------------------------------------------------------------------
# GM hypothesis, switch and isomorphism: the per-row bit loops that the count
# helper `cell_counts` and `bit_panels` replaced are the references


def _reference_check_equitable(G, cells, domain=None):
    cell_lists = [sorted(set(c)) for c in cells]
    all_verts = [v for c in cell_lists for v in c]
    if len(set(all_verts)) != len(all_verts):
        raise ParameterError("cells are not disjoint")
    domain_set = set(all_verts) if domain is None else set(domain)
    if set(all_verts) != domain_set:
        raise ParameterError("cells do not cover the domain exactly")
    cell_masks = [mask_of(c) for c in cell_lists]
    t = len(cell_lists)
    quotient = [[0] * t for _ in range(t)]
    for j, cell in enumerate(cell_lists):
        for i in range(t):
            counts = [(G.adj[v] & cell_masks[i]).bit_count() for v in cell]
            first = counts[0]
            for v, c in zip(cell, counts):
                if c != first:
                    return graph_mod.EquitableResult(False, None, (v, i, c, first))
            quotient[i][j] = first
    return graph_mod.EquitableResult(True, quotient, None)


def _reference_validate_gm(G, P):
    """(passed, equitable result, tallies, violations)."""
    P.validate_structure(G.n)
    domain = [v for c in P.cells for v in c]
    eq = _reference_check_equitable(G, P.cells, domain)
    tallies = {"zero": 0, "half": 0, "full": 0}
    violations = []
    for x in P.exempt:
        row = G.adj[x]
        for i, (m, s) in enumerate(zip(P.cell_masks(), [len(c) for c in P.cells])):
            c = (row & m).bit_count()
            if c == 0:
                tallies["zero"] += 1
            elif c == s:
                tallies["full"] += 1
            elif s % 2 == 0 and c == s // 2:
                tallies["half"] += 1
            else:
                violations.append((x, i, c, s))
    return eq.equitable and not violations, eq, tallies, violations


def _reference_switch(G, P):
    adj = list(G.adj)
    for x in P.exempt:
        flip = 0
        for m, s in zip(P.cell_masks(), [len(c) for c in P.cells]):
            if s % 2 == 0 and (G.adj[x] & m).bit_count() == s // 2:
                flip |= m
        if flip:
            adj[x] ^= flip
            for v in bits_of(flip):
                adj[v] ^= 1 << x
    return Graph(G.labels, adj)


def _reference_check_isomorphism(G, H, mapping):
    for u in range(G.n):
        permuted = 0
        for v in bits_of(G.adj[u]):
            permuted |= 1 << mapping[v]
        if permuted != H.adj[mapping[u]]:
            return graph_mod.IsoResult(False, (u, bits_of(permuted ^ H.adj[mapping[u]])[0]))
    return graph_mod.IsoResult(True, None)


@st.composite
def switching_instances(draw):
    """A graph with cells and an exempt class D: each cell a circulant (so
    equitable alone), each pair of cells joined completely or not at all,
    each D-vertex seeing none, half, all or a random part of each cell, and
    some random edges on top that may break equitability."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=5))
    nd = draw(st.integers(0, 6))
    noise = draw(st.sampled_from([0, 0, 1, 3]))
    cells, start = [], 0
    for s in sizes:
        cells.append(list(range(start, start + s)))
        start += s
    n = start + nd
    order = list(range(n))
    rng.shuffle(order)  # cells and D spread over the vertex range
    edges = set()

    def add(a, b):
        edges.add((min(order[a], order[b]), max(order[a], order[b])))

    for cell in cells:
        offsets = {o for o in range(1, len(cell)) if rng.random() < 0.5}
        offsets |= {len(cell) - o for o in offsets}
        for a in cell:
            for b in cell:
                if a < b and (b - a) in offsets:
                    add(a, b)
    for i, ci in enumerate(cells):
        for cj in cells[i + 1 :]:
            if rng.random() < 0.4:
                for a in ci:
                    for b in cj:
                        add(a, b)
    for x in range(start, n):
        for cell in cells:
            kind = rng.choice(["zero", "half", "full", "random"])
            k = {"zero": 0, "half": len(cell) // 2, "full": len(cell)}.get(kind, rng.randrange(len(cell) + 1))
            for a in rng.sample(cell, k):
                add(a, x)
        for y in range(start, x):
            if rng.random() < 0.5:
                add(y, x)
    for _ in range(noise):
        a, b = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if a != b:
            edges.symmetric_difference_update({(min(order[a], order[b]), max(order[a], order[b]))})
    G = _graph_from_edges(n, edges)
    P = SwitchingPartition(
        tuple(tuple(order[a] for a in c) for c in cells), tuple(order[x] for x in range(start, n))
    )
    return G, P


@settings(max_examples=150, deadline=None)
@given(switching_instances(), st.sampled_from([1, 24, 200, 1 << 16]))
def test_gm_checks_and_switch_match_bit_loops(instance, panel_bytes):
    G, P = instance
    with patch.object(graph_mod, "PANEL_BYTES", panel_bytes):
        domain = [v for c in P.cells for v in c]
        assert check_equitable(G, P.cells, domain) == _reference_check_equitable(G, P.cells, domain)
        if P.exempt:
            with_d = P.cells + (P.exempt,)
            assert check_equitable(G, with_d) == _reference_check_equitable(G, with_d)
        rep = validate_gm(G, P)
        passed, eq, tallies, violations = _reference_validate_gm(G, P)
        assert (rep.passed, rep.equitable, rep.tallies, rep.violations) == (passed, eq, tallies, violations)
        assert all(type(x) is int for v in rep.violations for x in v)
        assert apply_gm_switch(G, P) == _reference_switch(G, P)
    if rep.passed:
        assert gm_switch(gm_switch(G, P), P) == G


@st.composite
def isomorphism_instances(draw):
    """(G, H, mapping): H is G relabelled by a random permutation, then
    possibly tampered with (an edge of H flipped, or two mapping entries
    swapped)."""
    G = draw(random_graphs(max_n=140))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    perm = list(range(G.n))
    rng.shuffle(perm)
    rows = [0] * G.n
    for u in range(G.n):
        for v in G.neighbors(u):
            rows[perm[u]] |= 1 << perm[v]
    tamper = draw(st.sampled_from(["none", "edge", "swap"]))
    if G.n >= 2 and tamper == "edge":
        a, b = rng.sample(range(G.n), 2)
        rows[a] ^= 1 << b
        rows[b] ^= 1 << a
    elif G.n >= 2 and tamper == "swap":
        a, b = rng.sample(range(G.n), 2)
        perm[a], perm[b] = perm[b], perm[a]
    return G, Graph(range(G.n), rows), perm


@settings(max_examples=150, deadline=None)
@given(isomorphism_instances(), st.sampled_from([1, 100, 1000, 1 << 16]))
def test_check_isomorphism_matches_bit_loop(instance, panel_bytes):
    G, H, mapping = instance
    with patch.object(graph_mod, "PANEL_BYTES", panel_bytes):
        got = check_isomorphism(G, H, mapping)
    assert got == _reference_check_isomorphism(G, H, mapping)
    assert got.violation is None or all(type(x) is int for x in got.violation)


def test_gm_checks_match_bit_loops_on_grassmann(G22, info22, monkeypatch):
    # the (2,2) partition, whole and with one cell vertex moved into D
    P = info22.partition
    (v, *rest), *cells = P.cells
    moved = SwitchingPartition((tuple(rest), *cells), tuple(sorted(P.exempt + (v,))))
    for panel_bytes in (1, 8 * 25 * 3, 1 << 16):
        monkeypatch.setattr(graph_mod, "PANEL_BYTES", panel_bytes)
        for Q in (P, moved):
            rep = validate_gm(G22, Q)
            passed, eq, tallies, violations = _reference_validate_gm(G22, Q)
            assert (rep.passed, rep.equitable, rep.tallies, rep.violations) == (passed, eq, tallies, violations)
            assert apply_gm_switch(G22, Q) == _reference_switch(G22, Q)
        assert not validate_gm(G22, moved).passed and validate_gm(G22, P).passed
