"""Graph serialization: graph6, plain and JSON edge lists, and JSON label
tables.  The writers and the graph6 reader work on a panel of adjacency rows
at a time as 0/1 bytes (`graph.bit_panels`), never bit by bit in Python."""

from __future__ import annotations

import json

import numpy as np

from . import graph
from .errors import ParameterError
from .graph import Graph, bit_panels, masks_of_bits


def _n_to_graph6(n: int) -> bytes:
    if n < 0:
        raise ParameterError("negative vertex count")
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    if n <= 68719476735:
        return bytes([126, 126] + [((n >> (6 * k)) & 63) + 63 for k in range(5, -1, -1)])
    raise ParameterError("vertex count too large for graph6")


def _n_from_graph6(data: bytes) -> tuple[int, int]:
    """Returns (n, bytes consumed)."""
    if data[0] != 126:
        return data[0] - 63, 1
    start, end = (2, 8) if data[1:2] == b"~" else (1, 4)
    if len(data) < end:
        raise ParameterError("truncated graph6 size header")
    n = 0
    for b in data[start:end]:
        n = (n << 6) | (b - 63)
    return n, end


def to_graph6(G: Graph) -> bytes:
    """graph6 encoding (single line, no trailing newline).  The body is the
    lower triangle of the adjacency matrix row by row, six bits to a byte;
    the bits short of a byte at the end of a panel carry into the next."""
    n = G.n
    out = bytearray(_n_to_graph6(n))
    carry = np.zeros(0, dtype=np.uint8)
    for lo, rows in bit_panels(G):
        lower = np.arange(n) < np.arange(lo, lo + len(rows))[:, None]
        stream = np.concatenate([carry, rows[lower]])
        whole = len(stream) - len(stream) % 6
        out += _sextets(stream[:whole])
        carry = stream[whole:]
    out += _sextets(np.concatenate([carry, np.zeros(-len(carry) % 6, dtype=np.uint8)]))
    return bytes(out)


def _sextets(bits: np.ndarray) -> bytes:
    """graph6 bytes of 0/1 bits, six to a byte, high bit first."""
    return ((np.packbits(bits.reshape(-1, 6), axis=1)[:, 0] >> 2) + 63).tobytes()


def from_graph6(data: bytes, labels=None) -> Graph:
    """Decode a graph6 line; labels default to 0..n-1.  Entry (i, j), i < j,
    is bit t = j(j-1)/2 + i of the body, read for a panel of rows at once."""
    data = data.strip()
    if data.startswith(b">>graph6<<"):
        data = data[10:]
    raw = np.frombuffer(data, dtype=np.uint8)
    if not data or ((raw < 63) | (raw > 126)).any():
        raise ParameterError("not a graph6 line")
    n, consumed = _n_from_graph6(data)
    body = raw[consumed:] - 63
    expected = (n * (n - 1) // 2 + 5) // 6
    if len(body) != expected:
        raise ParameterError(f"graph6 body length {len(body)}, expected {expected}")
    # a spare zero group for the diagonal entry of the last row, at t = n(n-1)/2
    body = np.append(body, np.uint8(0))
    adj: list[int] = []
    i = np.arange(n, dtype=np.int64)
    step = max(1, graph.PANEL_BYTES // (8 * max(n, 1)))
    for lo in range(0, n, step):
        j = np.arange(lo, min(n, lo + step), dtype=np.int64)[:, None]
        high, low = np.maximum(i, j), np.minimum(i, j)
        t = high * (high - 1) // 2 + low
        bits = body[t // 6] >> (5 - t % 6).astype(np.uint8) & 1
        bits[i == j] = 0
        adj += masks_of_bits(bits)
    return Graph(range(n) if labels is None else labels, adj)


def _edges(G: Graph):
    """The edges (u, v), u < v, in lexicographic order, a panel of rows at a time."""
    for lo, rows in bit_panels(G):
        upper = np.arange(G.n) > np.arange(lo, lo + len(rows))[:, None]
        us, vs = np.nonzero(rows & upper)
        yield from zip((us + lo).tolist(), vs.tolist())


def to_edge_list(G: Graph) -> str:
    """Plain text: header line 'n m', then 'u v' per edge, 0-based, u < v, sorted."""
    edges = [f"{u} {v}" for u, v in _edges(G)]
    return "\n".join([f"{G.n} {len(edges)}", *edges]) + "\n"


def to_json(G: Graph) -> str:
    """JSON object {"edges": [[u, v], ...], "n": n}, edges as in `to_edge_list`,
    compact, one line with a trailing newline."""
    edges = [list(e) for e in _edges(G)]
    return json.dumps({"n": G.n, "edges": edges}, separators=(",", ":"), sort_keys=True) + "\n"


def _int_pair(line: str) -> tuple[int, int]:
    try:
        a, b = map(int, line.split())
    except ValueError:
        raise ParameterError(f"expected two integers, got {line!r}") from None
    return a, b


def from_edge_list(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParameterError("empty edge list")
    n, m = _int_pair(lines[0])
    if n < 0:
        raise ParameterError(f"negative vertex count {n}")
    edges = []
    for line in lines[1:]:
        u, v = _int_pair(line)
        if u == v:
            raise ParameterError("loop in edge list")
        if not (0 <= u < n and 0 <= v < n):
            raise ParameterError("edge endpoint out of range")
        edges.append((u, v))
    if len(edges) != m:
        raise ParameterError(f"edge list header claims {m} edges, found {len(edges)}")
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(range(n), adj)


def label_table_json(G: Graph, label_encoder=None) -> str:
    """JSON array mapping vertex index -> label description."""
    if label_encoder is None:
        label_encoder = _default_label_encoder
    return json.dumps([label_encoder(lab) for lab in G.labels], separators=(",", ":"))


def _default_label_encoder(lab):
    if hasattr(lab, "to_json"):
        return lab.to_json()
    if isinstance(lab, tuple):
        return list(lab)
    return lab
