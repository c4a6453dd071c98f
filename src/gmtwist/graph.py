"""Finite simple graphs with exact switching and cospectrality machinery.

Adjacency is stored as a tuple of Python int bitmasks, one per vertex.  Every
computation over whole graphs runs on a packed numpy view of bitmask rows,
`charpoly.packed_rows`: an (rows, ceil(bits/64)) uint64 array on which AND
plus `np.bitwise_count` replaces Python bit loops.  One word loop,
`_popcount_and`, serves the BFS intersection arrays, the neighbourhood
clique counts and `pair_counts`, the intersection sizes of every mask of one
family with every mask of another.  It makes the (vertex x cell) counts of
the equitability check, the GM validation and the switch, and in `construct`
the block graphs, the twisted Grassmann graph, the 2-design check and the
switched-adjacency rule.  The isomorphism check, the graph codecs of `graphio`
and `gm_witness` read the rows unpacked to 0/1 bytes, a panel at a time
(`bit_panels`).  `gm_witness` is the cospectrality proof: it checks the
Godsil-McKay similarity A' = QAQ exactly, with its own cell counts summed from
those panels, so it does not share a kernel with the switch it checks.  Every
count is a sum of integers, so every result stays exact, and no kernel
allocates an n x n array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .charpoly import char_polys_exact, packed_rows
from .errors import DomainError, GMHypothesisError, ParameterError

# Upper bound on the bytes of one neighbourhood chunk (see _neighbourhood_stacks)
NBHD_STACK_BYTES = 1 << 20
# Upper bound on the bytes of one panel: a (rows x n) uint64 array of the BFS
# and of the pair counts, or a (rows x n) 0/1 byte array of `bit_panels`
PANEL_BYTES = 1 << 16


class Graph:
    """Simple graph with ordered, hashable vertex labels and bitmask adjacency
    rows, both held as tuples so that a cached graph cannot be changed."""

    __slots__ = ("labels", "adj", "_index")

    def __init__(self, labels: Sequence, adj: Sequence[int]):
        self.labels = tuple(labels)
        self.adj = tuple(adj)
        if len(self.labels) != len(self.adj):
            raise ParameterError("labels and adjacency rows differ in length")
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._index) != len(self.labels):
            raise ParameterError("duplicate vertex labels")

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label) -> int:
        return self._index[label]

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.adj[i] >> j & 1)

    def degree(self, i: int) -> int:
        return self.adj[i].bit_count()

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.adj) // 2

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self.adj]

    def is_regular(self) -> bool:
        degs = self.degrees()
        return not degs or min(degs) == max(degs)

    def neighbors(self, i: int) -> list[int]:
        return bits_of(self.adj[i])

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.labels == other.labels
            and self.adj == other.adj
        )

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count()})"


def bits_of(mask: int) -> list[int]:
    out = []
    i = 0
    while mask:
        t = mask & -mask
        out.append(t.bit_length() - 1)
        mask ^= t
    return out


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def masks_of_bits(bits: np.ndarray) -> list[int]:
    """Int bitmask of each row of a 0/1 (rows, m) array: bit j of mask i is
    bits[i, j].  The inverse of unpacking `packed_rows`."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def bit_panels(G: Graph, order: Sequence[int] | None = None):
    """Yield (lo, bits) over panels of the rows order[0], order[1], ... of G
    (all rows without `order`): bits[i] is row order[lo + i] as n 0/1 bytes.
    A panel holds at least one row and at most PANEL_BYTES bytes otherwise."""
    n = G.n
    as_bytes = packed_rows(G.adj, n).view(np.uint8)
    order = np.arange(n) if order is None else np.asarray(order, dtype=np.intp)
    step = max(1, PANEL_BYTES // max(n, 1))
    for lo in range(0, len(order), step):
        yield lo, np.unpackbits(as_bytes[order[lo : lo + step]], axis=1, count=n, bitorder="little")


@dataclass
class EquitableResult:
    """Outcome of an equitability check: quotient matrix on success, first violation otherwise."""

    equitable: bool
    quotient: list[list[int]] | None = None
    violation: tuple | None = None  # (vertex, cell_index, count, expected)


def _equitable(cells: list[list[int]], counts: np.ndarray) -> EquitableResult:
    """EquitableResult of the sorted cells, given counts[r, i] = neighbours in
    cell i of the r-th vertex of the cells taken in order."""
    firsts = []
    lo = 0
    for cell in cells:
        block = counts[lo : lo + len(cell)]
        lo += len(cell)
        bad = block != block[0]
        if bad.any():
            i = int(np.argmax(bad.any(axis=0)))
            r = int(np.argmax(bad[:, i]))
            return EquitableResult(False, None, (cell[r], i, int(block[r, i]), int(block[0, i])))
        firsts.append(block[0].tolist())
    return EquitableResult(True, [list(row) for row in zip(*firsts)], None)


def check_equitable(
    G: Graph, cells: Sequence[Iterable[int]], domain: Iterable[int] | None = None
) -> EquitableResult:
    """Check that `cells` is an equitable partition of the subgraph induced on `domain`.

    Only edges inside the induced subgraph are counted.  Returns the quotient
    matrix m[i][j] = number of neighbors in cell i of any vertex of cell j.
    """
    cell_lists = [sorted(set(c)) for c in cells]
    all_verts = [v for c in cell_lists for v in c]
    if len(set(all_verts)) != len(all_verts):
        raise ParameterError("cells are not disjoint")
    domain_set = set(all_verts) if domain is None else set(domain)
    if set(all_verts) != domain_set:
        raise ParameterError("cells do not cover the domain exactly")
    counts = pair_count_matrix([G.adj[v] for v in all_verts], [mask_of(c) for c in cell_lists], G.n)
    return _equitable(cell_lists, counts)


@dataclass(frozen=True)
class SwitchingPartition:
    """Cells plus the switching-exempt class D, as vertex-index tuples."""

    cells: tuple[tuple[int, ...], ...]
    exempt: tuple[int, ...]

    def validate_structure(self, n: int) -> None:
        seen: set[int] = set()
        for part in list(self.cells) + [self.exempt]:
            for v in part:
                if not 0 <= v < n:
                    raise ParameterError(f"vertex index {v} out of range")
                if v in seen:
                    raise ParameterError(f"vertex {v} appears in two parts")
                seen.add(v)
        if len(seen) != n:
            raise ParameterError("partition does not cover the vertex set")

    def cell_masks(self) -> list[int]:
        return [mask_of(c) for c in self.cells]


@dataclass
class GMValidationReport:
    """Full record of a Godsil-McKay hypothesis check."""

    passed: bool
    equitable: EquitableResult
    tallies: dict  # {"zero": .., "half": .., "full": ..} over (x in D, cell) pairs
    violations: list  # (x, cell_index, count, cell_size)

    def summary(self) -> str:
        if self.passed:
            return f"pass (tallies {self.tallies})"
        if not self.equitable.equitable:
            return f"cells not equitable: {self.equitable.violation}"
        return f"{len(self.violations)} bad D-vertex counts, first {self.violations[0]}"


def validate_gm(G: Graph, P: SwitchingPartition) -> GMValidationReport:
    """Check the switching hypothesis: cells equitable on X \\ D, and every
    x in D sees 0, |C_i|/2 or |C_i| vertices of each cell C_i."""
    P.validate_structure(G.n)
    cells = [sorted(c) for c in P.cells]
    domain = [v for c in cells for v in c]
    counts = pair_count_matrix([G.adj[v] for v in domain + list(P.exempt)], P.cell_masks(), G.n)
    eq = _equitable(cells, counts[: len(domain)])
    d_counts = counts[len(domain) :]
    sizes = np.array([len(c) for c in cells])
    zero = d_counts == 0
    full = ~zero & (d_counts == sizes)
    half = ~zero & (2 * d_counts == sizes)
    tallies = {"zero": int(zero.sum()), "half": int(half.sum()), "full": int(full.sum())}
    violations = [
        (P.exempt[r], i, int(d_counts[r, i]), len(cells[i]))
        for r, i in np.argwhere(~(zero | half | full)).tolist()
    ]
    passed = eq.equitable and not violations
    return GMValidationReport(passed, eq, tallies, violations)


def gm_switch(G: Graph, P: SwitchingPartition) -> Graph:
    """Godsil-McKay switch: complement the x-C_i bipartite adjacency for every
    x in D with exactly half of C_i as neighbors.  Raises GMHypothesisError if
    validation fails.  Involution: switching twice restores G bit-exactly."""
    report = validate_gm(G, P)
    if not report.passed:
        raise GMHypothesisError(report)
    return apply_gm_switch(G, P)


def apply_gm_switch(G: Graph, P: SwitchingPartition) -> Graph:
    """The switch of `gm_switch` without validation, for a caller that has
    already seen validate_gm(G, P) pass."""
    adj = list(G.adj)
    masks = P.cell_masks()
    sizes = np.array([len(c) for c in P.cells])
    half = 2 * pair_count_matrix([G.adj[x] for x in P.exempt], masks, G.n) == sizes
    for r, i in np.argwhere(half).tolist():
        x = P.exempt[r]
        adj[x] ^= masks[i]
        for v in P.cells[i]:
            adj[v] ^= 1 << x
    return Graph(G.labels, adj)


def gm_witness(G: Graph, H: Graph, P: SwitchingPartition) -> tuple | None:
    """Check that H's adjacency matrix A' is QAQ, for A that of G and Q the
    Godsil-McKay matrix of P: (2/m)J - I on each cell of size m, I on the
    exempt class D.  Q = Q^T and Q^2 = I, so this is AQ = QA', and it proves
    G and H cospectral.  Returns None, or the first (x, y) in row-major order
    at which m_x m_y AQ and m_x m_y QA' differ.  Those integers are

        L[x, y] = m_x A[x, y]  (y in D),  m_x (2 N(x, c(y)) - m_y A[x, y])
        R[x, y] = m_y A'[x, y] (x in D),  m_y (2 N'(y, c(x)) - m_x A'[x, y])

    with m_v the size of the cell c(v) of v (1 on D), N(x, j) = |N_G(x) & C_j|
    and N'(y, i) = |N_H(y) & C_i|.  The counts are sums of the 0/1 rows of
    `bit_panels` gathered in cell order, not `pair_counts`, which makes the
    switch.  Rows go in chunks that keep one int64 (rows x n) array within
    PANEL_BYTES (and at least one row); |L|, |R| <= 2 n^2, so all is exact.
    """
    P.validate_structure(G.n)
    if H.n != G.n:
        raise ParameterError("the two graphs have different vertex counts")
    n = G.n
    cells = [c for c in P.cells if c]
    sizes = np.array([len(c) for c in cells], dtype=np.int64)
    order = np.array([v for c in cells for v in c], dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    # D is cell len(cells), whose counts are 0; sign is -m_v on the cells and 1 on D
    cell = np.full(n, len(cells), dtype=np.intp)
    cell[order] = np.repeat(np.arange(len(cells)), sizes)
    m = np.ones(n, dtype=np.int64)
    m[order] = np.repeat(sizes, sizes)
    sign = np.where(cell < len(cells), -m, 1)

    def cell_counts(bits):
        counts = np.add.reduceat(bits[:, order], starts, axis=1, dtype=np.int32)
        return np.pad(counts, ((0, 0), (0, 1)))

    h_counts = np.empty((len(cells) + 1, n), dtype=np.int32)  # h_counts[i, y] = N'(y, i)
    for lo, bits in bit_panels(H):
        h_counts[:, lo : lo + len(bits)] = cell_counts(bits).T
    step = max(1, PANEL_BYTES // (8 * max(n, 1)))
    for (lo, rows), (_, h_rows) in zip(bit_panels(G), bit_panels(H)):
        g_counts = cell_counts(rows)
        for r in range(0, len(rows), step):
            x = np.arange(lo + r, lo + min(r + step, len(rows)))
            left = 2 * g_counts[r : r + step, cell].astype(np.int64)
            left += sign * rows[r : r + step]
            left *= m[x, None]
            right = 2 * h_counts[cell[x]].astype(np.int64)
            right += sign[x, None] * h_rows[r : r + step]
            right *= m
            bad = left != right
            if bad.any():
                i, y = np.argwhere(bad)[0].tolist()
                return int(x[i]), y
    return None


@dataclass
class IntersectionArray:
    """Intersection array {b_0..b_{d-1}; c_1..c_d} of a distance-regular graph."""

    diameter: int
    b: tuple[int, ...]
    c: tuple[int, ...]

    def to_json(self):
        return {"diameter": self.diameter, "b": list(self.b), "c": list(self.c)}


@dataclass
class DRGResult:
    is_drg: bool
    array: IntersectionArray | None = None
    failure: tuple | None = None  # (root, vertex, distance, kind, got, expected)


def _pack_last_axis(bits: np.ndarray) -> np.ndarray:
    """0/1 array of shape (..., m) packed into (..., ceil(m/64)) little-endian
    uint64 words, laid out as in `packed_rows`."""
    m = bits.shape[-1]
    out = np.zeros(bits.shape[:-1] + (8 * ((m + 63) // 64),), dtype=np.uint8)
    out[..., : (m + 7) // 8] = np.packbits(bits, axis=-1, bitorder="little")
    return out.view("<u8")


def _popcount_and(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Sum over the words w of popcount(left[w] & right[w]) as int32.

    The first axis of both arrays indexes packed uint64 words; the rest of
    their shapes broadcast against each other and give the result's shape.
    Each word adds at most 64, so the sum is exact for fewer than 2^25 words.
    """
    shape = np.broadcast_shapes(left.shape[1:], right.shape[1:])
    counts = np.zeros(shape, dtype=np.int32)
    pair = np.empty(shape, dtype=np.uint64)
    ones = np.empty(shape, dtype=np.uint8)
    for w in range(left.shape[0]):
        np.bitwise_and(left[w], right[w], out=pair)
        counts += np.bitwise_count(pair, out=ones)
    return counts


def _panel_bfs(cols: np.ndarray, roots: np.ndarray):
    """BFS from every root of a panel at once over the packed view of G.

    `cols` is packed_rows(G.adj, n).T, one (n,) array per word.  Each layer is
    a (P, W) packed mask; counts[x, y] = |N(y) & L_j(x)| comes from AND plus
    popcount, and gives c of the vertices of L_{j+1} and b of those of
    L_{j-1}.  For L_0 = {x} the counts are row x itself.  Returns int32
    (P, n) arrays: the distance from each root (-1 if unreached), and c and b
    of every reached vertex (b is 0 on the last layer).
    """
    P, n = len(roots), cols.shape[1]
    dist = np.full((P, n), -1, dtype=np.int32)
    dist[np.arange(P), roots] = 0
    c = np.zeros((P, n), dtype=np.int32)
    b = np.zeros((P, n), dtype=np.int32)
    counts = ((cols[roots >> 6] >> (roots & 63).astype(np.uint64)[:, None]) & 1).astype(np.int32)
    j = 0
    while True:
        if j:
            np.copyto(b, counts, where=dist == j - 1)
        frontier = (counts > 0) & (dist < 0)
        if not frontier.any():
            return dist, c, b
        j += 1
        dist[frontier] = j
        np.copyto(c, counts, where=frontier)
        layer = _pack_last_axis(frontier)
        counts = _popcount_and(layer.T[:, :, None], cols[:, None, :])


def intersection_array(G: Graph) -> DRGResult:
    """Returns the array if the (c_j, b_j) counts of every vertex at distance
    j from every root are global constants, else the first inconsistency.

    The BFS runs over the packed view `packed_rows(G.adj, n)`, an (n, W)
    uint64 array with W = ceil(n/64), for a panel of roots at once (see
    `_panel_bfs`); a panel holds as many roots as keep one (roots x n) uint64
    array within PANEL_BYTES, so no n x n array is allocated.  Every
    count is a sum of integer popcounts bounded by n, so the result is exact.

    The expected values are those of the lowest vertex of each layer of root
    0; the failure is that of the first root in root order, and within it the
    first vertex in (distance, vertex) order, c before b.
    """
    n = G.n
    if n == 0:
        raise DomainError("empty graph")
    cols = np.ascontiguousarray(packed_rows(G.adj, n).T)
    dist, c, b = _panel_bfs(cols, np.zeros(1, dtype=np.int64))
    if (dist < 0).any():
        raise DomainError("graph is disconnected")
    d = int(dist.max())
    first = [int(np.argmax(dist[0] == j)) for j in range(d + 1)]
    c_exp = c[0, first]
    b_exp = b[0, first]
    step = max(1, PANEL_BYTES // (8 * n))
    for lo in range(0, n, step):
        roots = np.arange(lo, min(n, lo + step))
        dist, c, b = _panel_bfs(cols, roots)
        ecc = dist.max(axis=1)
        at = np.minimum(dist, d)
        bad_c = (dist > 0) & (c != c_exp[at])
        bad_b = (dist < d) & (b != b_exp[at])
        bad = bad_c | bad_b
        failing = (ecc != d) | bad.any(axis=1)
        if not failing.any():
            continue
        i = int(np.argmax(failing))
        root = lo + i
        if ecc[i] != d:
            return DRGResult(False, None, (root, None, None, "diameter", int(ecc[i]), d))
        vs = np.flatnonzero(bad[i])
        v = int(vs[np.argmin(dist[i, vs])])
        j = int(dist[i, v])
        if bad_c[i, v]:
            return DRGResult(False, None, (root, v, j, "c", int(c[i, v]), int(c_exp[j])))
        return DRGResult(False, None, (root, v, j, "b", int(b[i, v]), int(b_exp[j])))
    arr = IntersectionArray(d, tuple(b_exp[:d].tolist()), tuple(c_exp[1:].tolist()))
    return DRGResult(True, arr, None)


def pair_counts(left: Sequence[int], right: Sequence[int], nbits: int):
    """Yield (lo, counts) over panels of consecutive left masks: counts[i, j]
    = |left[lo + i] & right[j]|, an int32 (P, len(right)) array.

    The masks are bitmasks of at most nbits bits, packed into ceil(nbits/64)
    uint64 words by `packed_rows`; a panel holds as many rows as keep one
    (rows x len(right)) uint64 array within PANEL_BYTES, and at least one.
    """
    rows = np.ascontiguousarray(packed_rows(left, nbits).T)
    cols = np.ascontiguousarray(packed_rows(right, nbits).T)
    step = max(1, PANEL_BYTES // (8 * max(len(right), 1)))
    for lo in range(0, len(left), step):
        yield lo, _popcount_and(rows[:, lo : lo + step, None], cols[:, None, :])


def pair_count_matrix(left: Sequence[int], right: Sequence[int], nbits: int) -> np.ndarray:
    """All the panels of `pair_counts` in one int32 (len(left), len(right)) array."""
    counts = np.empty((len(left), len(right)), dtype=np.int32)
    for lo, panel in pair_counts(left, right, nbits):
        counts[lo : lo + len(panel)] = panel
    return counts


def pair_count_graph(
    labels: Sequence, masks: Sequence[int], nbits: int, targets, classes: Sequence[int]
) -> Graph:
    """Graph on labels in which i != j are adjacent when |masks[i] & masks[j]|
    equals targets[classes[i]][classes[j]] (see `pair_counts`)."""
    targets = np.asarray(targets)
    classes = np.asarray(classes, dtype=np.intp)
    adj: list[int] = []
    for lo, counts in pair_counts(masks, masks, nbits):
        rows = np.arange(lo, lo + len(counts))
        hits = counts == targets[classes[rows, None], classes[None, :]]
        hits[np.arange(len(rows)), rows] = False
        adj += masks_of_bits(hits)
    return Graph(labels, adj)


@dataclass
class InvariantDistribution:
    """Multiset of per-vertex invariant values; >= 2 distinct values certifies
    that the graph is not vertex-transitive."""

    invariant: str
    counts: dict  # value -> number of vertices

    @property
    def distinct(self) -> int:
        return len(self.counts)


def _neighbourhood_stacks(G: Graph, item_bytes: int):
    """Yield (vertices, H) over the degree classes of G, in chunks: H[i] is the
    0/1 uint8 (k, k) adjacency matrix of the subgraph induced on the open
    neighbourhood of vertices[i], neighbours in ascending order.

    H is gathered bit by bit from the packed view, so no n x n array is made.
    A chunk of degree k holds at most NBHD_STACK_BYTES // (item_bytes k^2 + n)
    vertices, for a caller whose temporaries take item_bytes per entry of H
    (the n is the unpacked row of each vertex, read for its neighbours), and
    at least one.
    """
    packed = packed_rows(G.adj, G.n)
    as_bytes = packed.view(np.uint8)
    degrees = np.bitwise_count(packed).sum(axis=1, dtype=np.int64)
    for k in np.unique(degrees).tolist():
        verts = np.flatnonzero(degrees == k)
        step = max(1, NBHD_STACK_BYTES // (item_bytes * k * k + G.n))
        for lo in range(0, len(verts), step):
            chunk = verts[lo : lo + step]
            member = np.unpackbits(as_bytes[chunk], axis=1, count=G.n, bitorder="little")
            nbrs = np.nonzero(member)[1].reshape(len(chunk), k)
            del member
            col = nbrs[:, None, :]
            H = as_bytes[nbrs[:, :, None], col >> 3]
            H >>= (col & 7).astype(np.uint8)
            H &= 1
            yield chunk, H


def _clique_counts(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(triangles, 4-cliques) through each vertex of a stack of neighbourhood
    graphs H: the edges and the triangles of H[i], by popcount.

    With the rows of H[i] packed into ceil(k/64) words, common[u, w] =
    |N(u) & N(w)| inside H[i], and summing it over the edges (u, w) counts
    each triangle of H[i] six times.
    """
    rows = _pack_last_axis(H)
    words = np.moveaxis(rows, -1, 0)
    common = _popcount_and(words[..., :, None], words[..., None, :])
    edges = np.bitwise_count(rows).sum(axis=(1, 2), dtype=np.int64) // 2
    common *= H
    triangles = common.sum(axis=(1, 2), dtype=np.int64) // 6
    return edges, triangles


def vertex_invariants(G: Graph, invariant: str) -> list:
    """Value of `invariant` at each vertex, in vertex order.

    "nbhd-charpoly": the exact char poly of the subgraph induced on the open
    neighbourhood.  All neighbourhoods of one degree go through the batched
    mod-p kernel of `charpoly` together, in chunks of at most
    NBHD_STACK_BYTES of 0/1 matrices here and KERNEL_STACK_BYTES of int64
    kernel input there; the overflow argument is the one in `charpoly`.

    "clique-counts": (triangles, 4-cliques) through the vertex, that is the
    edges and the triangles of its neighbourhood graph, counted by integer
    popcounts over its rows packed into ceil(k/64) uint64 words (see
    `_clique_counts`), a degree class at a time in chunks whose temporaries,
    about 16 bytes per neighbour pair, stay within NBHD_STACK_BYTES.  No
    float is involved: each pair count is an int32 at most k and each sum an
    int64 at most k^3, so the counts are exact.

    Both start from the packed view `packed_rows(G.adj, n)`; neither
    allocates an n x n array.
    """
    if invariant not in ("nbhd-charpoly", "clique-counts"):
        raise ParameterError(f"unknown invariant {invariant!r}")
    values: list = [None] * G.n
    if invariant == "nbhd-charpoly":
        for chunk, H in _neighbourhood_stacks(G, 1):
            for v, poly in zip(chunk.tolist(), char_polys_exact(H)):
                values[v] = poly
    else:
        for chunk, H in _neighbourhood_stacks(G, 16):
            edges, triangles = _clique_counts(H)
            for v, e, t in zip(chunk.tolist(), edges.tolist(), triangles.tolist()):
                values[v] = (e, t)
    return values


def vertex_invariant_distribution(
    G: Graph, invariant: str = "nbhd-charpoly"
) -> InvariantDistribution:
    """Distribution of a per-vertex invariant (see `vertex_invariants`) over
    all vertices.  Default invariant: exact char poly of the subgraph induced
    on the open neighborhood."""
    counts: dict = {}
    for val in vertex_invariants(G, invariant):
        counts[val] = counts.get(val, 0) + 1
    return InvariantDistribution(invariant, counts)


@dataclass
class IsoResult:
    ok: bool
    violation: tuple | None = None  # (u, v) first pair with mismatched adjacency


def check_isomorphism(G: Graph, H: Graph, mapping: Sequence[int]) -> IsoResult:
    """Verify that vertex map i -> mapping[i] is a graph isomorphism G -> H:
    row u of G against row mapping[u] of H read at the columns mapping[v].
    The violation is the first such u and the lowest H-vertex of its misfits."""
    if G.n != H.n or len(mapping) != G.n or len(set(mapping)) != G.n:
        raise ParameterError("mapping is not a bijection between the vertex sets")
    if any(not 0 <= m < H.n for m in mapping):
        raise ParameterError("mapping image out of range")
    image = np.asarray(mapping, dtype=np.intp)
    for (lo, rows), (_, h_rows) in zip(bit_panels(G), bit_panels(H, image)):
        diff = rows != h_rows[:, image]
        if diff.any():
            i = int(np.argmax(diff.any(axis=1)))
            return IsoResult(False, (lo + i, int(image[diff[i]].min())))
    return IsoResult(True, None)
