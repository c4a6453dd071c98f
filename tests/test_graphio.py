import json
import random

import pytest

from gmtwist.errors import ParameterError
from gmtwist.graph import Graph, build_graph
from gmtwist.graphio import (
    from_edge_list,
    from_graph6,
    label_table_json,
    to_edge_list,
    to_graph6,
)


def _random_graph(n, p, rng):
    edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    return build_graph(range(n), lambda u, v: (u, v) in edges)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 17, 62, 63, 64, 100])
def test_graph6_roundtrip_sizes(n):
    rng = random.Random(n)
    G = _random_graph(n, 0.4, rng)
    H = from_graph6(to_graph6(G))
    assert H.n == n and H.adj == G.adj


def test_graph6_roundtrip_large(G22):
    data = to_graph6(G22)
    H = from_graph6(data)
    assert H.n == 155 and H.adj == G22.adj


def test_graph6_known_values():
    # complete graph K3 is 'Bw' per the format's canonical example
    K3 = build_graph(range(3), lambda u, v: True)
    assert to_graph6(K3) == b"Bw"
    # single vertex, no edges
    assert to_graph6(Graph([0], [0])) == b"@"


def test_graph6_cross_check_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(7)
    for n in (5, 30, 70):
        G = _random_graph(n, 0.5, rng)
        theirs = nx.from_graph6_bytes(to_graph6(G))
        assert theirs.number_of_nodes() == n
        assert {tuple(sorted(e)) for e in theirs.edges()} == {
            (u, v) for u in range(n) for v in range(u + 1, n) if G.has_edge(u, v)
        }
        # and their encoder round-trips through our decoder
        H = nx.gnp_random_graph(n, 0.5, seed=n)
        ours = from_graph6(nx.to_graph6_bytes(H, header=False).strip())
        assert {tuple(sorted(e)) for e in H.edges()} == {
            (u, v) for u in range(n) for v in range(u + 1, n) if ours.has_edge(u, v)
        }


def test_graph6_rejects_garbage():
    with pytest.raises(ParameterError):
        from_graph6(b"")
    with pytest.raises(ParameterError):
        from_graph6(b"B")  # truncated edge bits for n=3
    with pytest.raises(ParameterError):
        from_graph6(bytes([30, 30]))  # bytes below the printable range


def test_edge_list_roundtrip():
    rng = random.Random(11)
    G = _random_graph(12, 0.3, rng)
    text = to_edge_list(G)
    H = from_edge_list(text)
    assert H.n == G.n and H.adj == G.adj
    first = text.splitlines()[0].split()
    assert int(first[0]) == G.n and int(first[1]) == G.edge_count()


def test_label_table_json(G22):
    table = json.loads(label_table_json(G22))
    assert len(table) == 155
    # each label serializes to its basis rows; entry 0 has 3 rows of length 5
    assert len(table[0]) == 3 and all(len(row) == 5 for row in table[0])
