"""Finite simple graphs with exact spectral and switching machinery.

Adjacency is stored as one Python int bitmask per vertex, which keeps the
all-pairs loops (equitability counts, BFS sweeps, switching) fast enough for
exhaustive verification at the certified parameters while staying exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .charpoly import adjacency_matrix, char_poly_exact, char_polys_exact
from .errors import DomainError, GMHypothesisError, ParameterError

DEFAULT_SPECTRAL_BUDGET = 2000
# Upper bound on the bytes of 0/1 neighbourhood matrices cut out at once
NBHD_STACK_BYTES = 1 << 20


class Graph:
    """Simple graph with ordered, hashable vertex labels and bitmask adjacency rows."""

    __slots__ = ("labels", "adj", "_index")

    def __init__(self, labels: Sequence, adj: Sequence[int]):
        self.labels = tuple(labels)
        self.adj = list(adj)
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

    def copy(self) -> "Graph":
        return Graph(self.labels, list(self.adj))

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


def build_graph(labels: Sequence, adjacent: Callable) -> Graph:
    """Graph from a symmetric irreflexive predicate evaluated on all label pairs."""
    labels = tuple(labels)
    n = len(labels)
    adj = [0] * n
    for i in range(n):
        li = labels[i]
        for j in range(i + 1, n):
            if adjacent(li, labels[j]):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph(labels, adj)


@dataclass
class EquitableResult:
    """Outcome of an equitability check: quotient matrix on success, first violation otherwise."""

    equitable: bool
    quotient: list[list[int]] | None = None
    violation: tuple | None = None  # (vertex, cell_index, count, expected)


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
    cell_masks = [mask_of(c) for c in cell_lists]
    t = len(cell_lists)
    quotient = [[0] * t for _ in range(t)]
    for j, cell in enumerate(cell_lists):
        for i in range(t):
            counts = [(G.adj[v] & cell_masks[i]).bit_count() for v in cell]
            first = counts[0]
            for v, c in zip(cell, counts):
                if c != first:
                    return EquitableResult(False, None, (v, i, c, first))
            quotient[i][j] = first
    return EquitableResult(True, quotient, None)


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
    classifications: list  # (x, cell_index, count, class) for every pair
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
    domain = [v for c in P.cells for v in c]
    eq = check_equitable(G, P.cells, domain)
    tallies = {"zero": 0, "half": 0, "full": 0}
    classifications = []
    violations = []
    masks = P.cell_masks()
    sizes = [len(c) for c in P.cells]
    for x in P.exempt:
        row = G.adj[x]
        for i, (m, s) in enumerate(zip(masks, sizes)):
            c = (row & m).bit_count()
            if c == 0:
                cls = "zero"
            elif c == s:
                cls = "full"
            elif s % 2 == 0 and c == s // 2:
                cls = "half"
            else:
                cls = "bad"
                violations.append((x, i, c, s))
            if cls != "bad":
                tallies[cls] += 1
            classifications.append((x, i, c, cls))
    passed = eq.equitable and not violations
    return GMValidationReport(passed, eq, tallies, classifications, violations)


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
    sizes = [len(c) for c in P.cells]
    for x in P.exempt:
        flip = 0
        for m, s in zip(masks, sizes):
            if s % 2 == 0 and (G.adj[x] & m).bit_count() == s // 2:
                flip |= m
        if flip:
            adj[x] ^= flip
            xbit = 1 << x
            for v in bits_of(flip):
                adj[v] ^= xbit
    return Graph(G.labels, adj)


@dataclass(frozen=True)
class CharPoly:
    """Exact det(xI - A); coeffs[i] is the coefficient of x^i, monic."""

    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def char_poly(G: Graph, budget: int = DEFAULT_SPECTRAL_BUDGET) -> CharPoly:
    """Exact integer characteristic polynomial of the adjacency matrix."""
    if G.n > budget:
        from .errors import BudgetExceededError

        raise BudgetExceededError(
            f"char poly of a {G.n}-vertex graph exceeds spectral budget {budget}"
        )
    return CharPoly(char_poly_exact(G.adj, G.n))


def cospectral(G: Graph, H: Graph, budget: int = DEFAULT_SPECTRAL_BUDGET) -> bool:
    """Whether G and H have identical characteristic polynomials (exact)."""
    if G.n != H.n:
        return False
    return char_poly(G, budget) == char_poly(H, budget)


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


def intersection_array(G: Graph) -> DRGResult:
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
            return DRGResult(False, None, (root, None, None, "diameter", len(layers) - 1, d))
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
                        return DRGResult(False, None, (root, v, j, "c", cj, c[j]))
                if j < d:
                    if b[j] is None:
                        b[j] = bj
                    elif b[j] != bj:
                        return DRGResult(False, None, (root, v, j, "b", bj, b[j]))
    arr = IntersectionArray(d, tuple(b[:d]), tuple(c[1:]))  # type: ignore[arg-type]
    return DRGResult(True, arr, None)


@dataclass
class InvariantDistribution:
    """Multiset of per-vertex invariant values; >= 2 distinct values certifies
    that the graph is not vertex-transitive."""

    invariant: str
    counts: dict  # value -> number of vertices
    fallback_used: bool

    @property
    def distinct(self) -> int:
        return len(self.counts)

    def to_json(self):
        return {
            "invariant": self.invariant,
            "fallback_used": self.fallback_used,
            "distinct_values": self.distinct,
            "class_sizes": sorted(self.counts.values(), reverse=True),
        }


def _neighborhood_charpolys(G: Graph) -> list[tuple[int, ...]]:
    """Exact char poly of every open neighbourhood, one degree class at a time.

    The neighbourhood matrices of a class are cut from a dense 0/1 view of G
    in chunks of at most NBHD_STACK_BYTES and go to the batched kernel.
    """
    dense = adjacency_matrix(G.adj, G.n)
    degrees = dense.sum(axis=1, dtype=np.int64)
    values: list = [None] * G.n
    for k in np.unique(degrees).tolist():
        verts = np.flatnonzero(degrees == k)
        step = max(1, NBHD_STACK_BYTES // max(1, k * k))
        for lo in range(0, len(verts), step):
            chunk = verts[lo : lo + step]
            nbrs = np.nonzero(dense[chunk])[1].reshape(len(chunk), k)
            stack = dense[nbrs[:, :, None], nbrs[:, None, :]]
            for v, poly in zip(chunk.tolist(), char_polys_exact(stack)):
                values[v] = poly
    return values


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


def vertex_invariants(G: Graph, invariant: str) -> list:
    """Value of `invariant` ("nbhd-charpoly" or "clique-counts") at each vertex, in vertex order."""
    if invariant == "nbhd-charpoly":
        return _neighborhood_charpolys(G)
    if invariant == "clique-counts":
        return [_clique_counts(G, v) for v in range(G.n)]
    raise ParameterError(f"unknown invariant {invariant!r}")


def vertex_invariant_distribution(
    G: Graph,
    invariant: str = "nbhd-charpoly",
    budget: int = DEFAULT_SPECTRAL_BUDGET,
) -> InvariantDistribution:
    """Distribution of a per-vertex invariant over all vertices.

    Default invariant: exact char poly of the subgraph induced on the open
    neighborhood.  All neighbourhoods of one degree go through the batched
    mod-p kernel of `charpoly` together, in chunks of at most
    NBHD_STACK_BYTES of 0/1 matrices here and KERNEL_STACK_BYTES of int64
    kernel input there; the overflow argument is the one in `charpoly`.
    Falls back to per-vertex (triangle, 4-clique) counts when a neighborhood
    exceeds the spectral budget, and flags the fallback.
    """
    fallback = False
    if invariant == "nbhd-charpoly" and any(G.degree(v) > budget for v in range(G.n)):
        invariant = "clique-counts"
        fallback = True
    counts: dict = {}
    for val in vertex_invariants(G, invariant):
        counts[val] = counts.get(val, 0) + 1
    return InvariantDistribution(invariant, counts, fallback)


@dataclass
class IsoResult:
    ok: bool
    violation: tuple | None = None  # (u, v) first pair with mismatched adjacency


def check_isomorphism(G: Graph, H: Graph, mapping: Sequence[int]) -> IsoResult:
    """Verify that vertex map i -> mapping[i] is a graph isomorphism G -> H."""
    if G.n != H.n or len(mapping) != G.n or len(set(mapping)) != G.n:
        raise ParameterError("mapping is not a bijection between the vertex sets")
    if any(not 0 <= m < H.n for m in mapping):
        raise ParameterError("mapping image out of range")
    for u in range(G.n):
        permuted = 0
        for v in bits_of(G.adj[u]):
            permuted |= 1 << mapping[v]
        if permuted != H.adj[mapping[u]]:
            diff = permuted ^ H.adj[mapping[u]]
            v_img = bits_of(diff)[0]
            return IsoResult(False, (u, v_img))
    return IsoResult(True, None)
