import json
import random
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gmtwist.graph as graph_mod
from gmtwist.errors import ParameterError
from gmtwist.graph import Graph
from gmtwist.graphio import (
    _n_from_graph6,
    _n_to_graph6,
    from_edge_list,
    from_graph6,
    label_table_json,
    to_edge_list,
    to_graph6,
    to_json,
)
from helpers import build_graph


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


# the per-bit codecs and the edge walks that graphio replaced, kept as references


def _reference_to_graph6(G):
    out = bytearray(_n_to_graph6(G.n))
    bits = [G.adj[j] >> i & 1 for j in range(1, G.n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = (val << 1) | b
        out.append(val + 63)
    return bytes(out)


def _reference_from_graph6(data):
    n, consumed = _n_from_graph6(data)
    bits = [(byte - 63) >> k & 1 for byte in data[consumed:] for k in range(5, -1, -1)]
    adj = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            idx += 1
    return adj


def _reference_edges(G):
    return [(u, v) for u in range(G.n) for v in range(u + 1, G.n) if G.adj[u] >> v & 1]


def _check_codecs(G):
    data = to_graph6(G)
    assert data == _reference_to_graph6(G)
    H = from_graph6(data)
    assert H.adj == G.adj and list(H.adj) == _reference_from_graph6(data)
    edges = _reference_edges(G)
    assert to_edge_list(G) == "\n".join([f"{G.n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]) + "\n"
    doc = {"n": G.n, "edges": [list(e) for e in edges]}
    assert to_json(G) == json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"


@pytest.mark.parametrize("n", [0, 1, 62, 63, 64, 65, 130])
def test_codecs_match_bit_loops(n, monkeypatch):
    rng = random.Random(n)
    graphs = [_random_graph(n, p, rng) for p in (0.0, 0.3, 0.7, 1.0)]
    # one row per panel, a few rows, and the default bound
    for panel_bytes in (1, 3 * n + 1, 8 * 5 * n, 1 << 16):
        monkeypatch.setattr(graph_mod, "PANEL_BYTES", panel_bytes)
        for G in graphs:
            _check_codecs(G)


@st.composite
def random_graphs(draw):
    n = draw(st.integers(0, 140))
    p = draw(st.sampled_from([0.0, 0.05, 0.5, 0.95, 1.0]))
    return _random_graph(n, p, random.Random(draw(st.integers(0, 2**32 - 1))))


@settings(max_examples=60, deadline=None)
@given(random_graphs(), st.sampled_from([1, 50, 1000, 1 << 16]))
def test_codecs_match_bit_loops_on_random_graphs(G, panel_bytes):
    with patch.object(graph_mod, "PANEL_BYTES", panel_bytes):
        _check_codecs(G)


def test_graph6_size_headers():
    # the 4-byte form from n = 63 and the 8-byte form from n = 258048
    assert _n_to_graph6(63) == b"~??~"
    assert _n_from_graph6(b"~??~") == (63, 4)
    assert _n_from_graph6(_n_to_graph6(258048)) == (258048, 8)
    assert _n_from_graph6(_n_to_graph6(258047)) == (258047, 4)


@pytest.mark.parametrize("data", [b"~", b"~?", b"~??", b"~~", b"~~??", b"~~?????"])
def test_graph6_rejects_truncated_size_header(data):
    with pytest.raises(ParameterError, match="truncated graph6 size header"):
        from_graph6(data)


@pytest.mark.parametrize("text", ["3", "3 1 2", "a b", "3 1\n0", "3 1\n0 1 2", "3 1\n0 x", "2.0 0"])
def test_edge_list_rejects_malformed_lines(text):
    with pytest.raises(ParameterError, match="expected two integers"):
        from_edge_list(text)


def test_edge_list_rejects_negative_vertex_count():
    with pytest.raises(ParameterError, match="negative vertex count"):
        from_edge_list("-1 0")
