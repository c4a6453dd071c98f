import random

import pytest

import gmtwist.graph as graph_mod
from gmtwist.charpoly import char_poly_exact
from gmtwist.errors import DomainError, GMHypothesisError, ParameterError
from gmtwist.graph import (
    Graph,
    SwitchingPartition,
    apply_gm_switch,
    bits_of,
    build_graph,
    char_poly,
    check_equitable,
    check_isomorphism,
    cospectral,
    gm_switch,
    intersection_array,
    mask_of,
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
    assert K3.adj == [0b110, 0b101, 0b011]
    assert K3.is_regular() and K3.degree(0) == 2 and K3.edge_count() == 3
    empty = build_graph(range(4), lambda u, v: False)
    assert empty.adj == [0, 0, 0, 0] and empty.edge_count() == 0
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
        assert cospectral(G, H)  # switching preserves the spectrum


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


def test_vertex_invariants():
    C6 = _cycle(6)
    d = vertex_invariant_distribution(C6)
    assert d.distinct == 1 and not d.fallback_used

    star = _graph_from_edges(4, {(0, 1), (0, 2), (0, 3)})
    d = vertex_invariant_distribution(star)
    assert d.distinct == 2 and sorted(d.counts.values()) == [1, 3]

    # tiny budget forces the clique-count fallback
    d = vertex_invariant_distribution(_complete(5), budget=2)
    assert d.fallback_used and d.invariant == "clique-counts" and d.distinct == 1

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
    tampered = switched22.copy()
    tampered.adj[u] ^= 1 << v
    tampered.adj[v] ^= 1 << u
    assert char_poly(tampered) != char_poly(switched22)
    assert (
        vertex_invariant_distribution(tampered).counts
        != vertex_invariant_distribution(switched22).counts
    )


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
    assert cospectral(K3, K3)
    assert cospectral(K3, _cycle(3))
    assert not cospectral(K3, _graph_from_edges(3, {(0, 1)}))
    assert not cospectral(K3, _complete(4))
    from gmtwist.errors import BudgetExceededError

    with pytest.raises(BudgetExceededError):
        char_poly(_complete(10), budget=5)


def test_graph_equality_and_copy():
    K3 = _complete(3)
    cp = K3.copy()
    assert cp == K3 and cp is not K3
    assert K3.index(1) == 1
    assert K3.has_edge(0, 1) and not K3.has_edge(0, 0)
