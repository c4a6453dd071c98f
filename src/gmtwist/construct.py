"""The specific objects under certification: Grassmann graphs over GF(q), the
vertex split A / B / D induced by a fixed hyperplane, the polarity-paired
switching partition, the twisted Grassmann graph, the geometric and
pseudo-geometric designs, their block graphs, and the explicit vertex maps
whose isomorphism claims the certifier checks edge by edge.

Every subspace enters as its projective-point mask (`subspace.point_mask`),
and every count between masks (the block graphs and their histogram, the
twisted Grassmann graph, the 2-design check and the switched-adjacency rule)
comes from the popcount pair kernel of `graph` (`pair_counts`).  The
Grassmann adjacency takes a separate route that uses no point mask: the
cliques of the subspaces lying in a common space one dimension up, found by
RREF.  So the block-graph identity (the geometric design's block graph is the
Grassmann graph) compares two independent constructions.

Conventions (fixed for reproducibility):
  - V = GF(q)^(2e+1); the hyperplane H is the span of the first 2e coordinates.
  - Vertex order of every constructed graph is the canonical subspace order.
  - Points are the 1-subspaces of V in canonical order.  Design blocks are
    identified by their sorted point-index tuples; the geometric design
    lists blocks in the canonical order of their generating subspaces, the
    distorted design lists blocks sorted by point set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Sequence

import numpy as np

from .errors import BudgetExceededError, DomainError, ParameterError
from .gf import FieldContext, make_field
from .graph import (
    Graph,
    SwitchingPartition,
    bit_panels,
    bits_of,
    check_equitable,
    mask_of,
    masks_of_bits,
    pair_count_graph,
    pair_count_matrix,
    pair_counts,
)
from .subspace import (
    Polarity,
    Subspace,
    apply_polarity,
    enumerate_subspaces,
    gaussian_binomial,
    make_polarity,
    point_mask,
    span,
)

# Largest admitted vertex count: one n-bit adjacency copy (n^2 bits) then stays
# within 128 MiB.  Admits (q, e) = (2,2), (3,2), (4,2), (5,2) and (2,3) for
# e >= 2; the next size up, (7,2), has 140050 vertices.
MAX_VERTICES = 1 << 15


@dataclass(frozen=True)
class Parameters:
    """Certified parameter pair (q, e); ambient dimension n = 2e+1."""

    q: int
    e: int

    def __post_init__(self):
        make_field(self.q)  # raises on bad q
        if self.e < 1:
            raise ParameterError(f"need e >= 1, got e={self.e}")

    @property
    def n(self) -> int:
        return 2 * self.e + 1

    @property
    def ctx(self) -> FieldContext:
        return make_field(self.q)

    @property
    def vertex_count(self) -> int:
        return gaussian_binomial(self.n, self.e + 1, self.q)


def _points_on(q: int, cols: list[int], ambient: int):
    """The projective points supported on the coordinates `cols`, each as the
    vector whose first nonzero entry is 1."""
    for a, lead in enumerate(cols):
        for tail in product(range(q), repeat=len(cols) - a - 1):
            vec = [0] * ambient
            vec[lead] = 1
            for j, x in zip(cols[a + 1 :], tail):
                vec[j] = x
            yield vec


def _grassmann_rows(verts: Sequence[Subspace]) -> list[int]:
    """Adjacency rows of the Grassmann graph on the k-subspaces `verts`.

    Two k-spaces meet in dimension k-1 exactly when they lie in a common
    (k+1)-space, their sum.  The (k+1)-spaces through W are span(W, c) over
    the points c of the coordinate complement of W (the coordinates that are
    not pivots of its RREF basis), each once.  Grouping the vertices by these
    RREF spans makes every group a clique, and every edge lies in exactly one
    group.  No point mask is involved, so the block graphs, built from point
    masks by the pair kernel, are compared with an independent construction.
    """
    cliques: dict = {}
    for i, W in enumerate(verts):
        pivots = {next(j for j, x in enumerate(row) if x) for row in W.basis}
        free = [j for j in range(W.ambient) if j not in pivots]
        for c in _points_on(W.ctx.q, free, W.ambient):
            T = span(W.ctx, [*W.basis, c], W.ambient).basis
            cliques[T] = cliques.get(T, 0) | 1 << i
    rows = [0] * len(verts)
    for members in cliques.values():
        for i in bits_of(members):
            rows[i] |= members
    return [r & ~(1 << i) for i, r in enumerate(rows)]


@lru_cache(maxsize=None)
def _hyperplane(params: Parameters) -> Subspace:
    """H, the span of the first 2e coordinate vectors."""
    n = params.n
    basis = tuple(tuple(int(i == j) for j in range(n)) for i in range(n - 1))
    return Subspace(params.ctx, n, basis)


def _in_hyperplane(W: Subspace) -> bool:
    last = W.ambient - 1
    return all(row[last] == 0 for row in W.basis)


@lru_cache(maxsize=None)
def _all_vertices(params: Parameters) -> tuple[Subspace, ...]:
    """The (e+1)-subspaces of V in canonical order, the vertex set of every
    graph and the block set of every design built here.  Every command
    reaches it first, so its size check is the one admission rule."""
    if params.vertex_count > MAX_VERTICES:
        raise BudgetExceededError(
            f"J_{params.q}({params.n},{params.e + 1}) has {params.vertex_count} vertices,"
            f" more than the {MAX_VERTICES} admitted"
        )
    return tuple(enumerate_subspaces(params.ctx, params.n, params.e + 1))


@lru_cache(maxsize=None)
def canonical_grassmann(params: Parameters) -> Graph:
    """J_q(2e+1, e+1) with the canonical vertex order."""
    verts = _all_vertices(params)
    return Graph(verts, _grassmann_rows(verts))


@lru_cache(maxsize=None)
def _h_subspaces(params: Parameters, k: int) -> tuple[Subspace, ...]:
    """k-subspaces of the hyperplane H, embedded in ambient 2e+1 (last coord 0)."""
    ctx = params.ctx
    small = enumerate_subspaces(ctx, 2 * params.e, k)
    return tuple(
        sorted(
            Subspace(ctx, params.n, tuple(tuple(r) + (0,) for r in s.basis)) for s in small
        )
    )


def split_A_B(params: Parameters) -> tuple[list[Subspace], list[Subspace], list[Subspace]]:
    """(A, B, D): A = (e+1)-subspaces not inside H, D = those inside H,
    B = (e-1)-subspaces of H.  All in canonical order, ambient 2e+1."""
    A = []
    D = []
    for W in _all_vertices(params):
        (D if _in_hyperplane(W) else A).append(W)
    B = list(_h_subspaces(params, params.e - 1))
    return A, B, D


def intersect_hyperplane(W: Subspace) -> Subspace:
    """W cap H for the coordinate hyperplane H (last coordinate zero)."""
    ctx = W.ctx
    last = W.ambient - 1
    rows = [list(r) for r in W.basis]
    pivot_row = next((r for r in rows if r[last] != 0), None)
    if pivot_row is None:
        return W
    inv = ctx.inv(pivot_row[last])
    reduced = []
    for r in rows:
        if r is pivot_row:
            continue
        if r[last] != 0:
            f = ctx.mul(r[last], inv)
            r = [ctx.sub(x, ctx.mul(f, y)) for x, y in zip(r, pivot_row)]
        reduced.append(r)
    return span(ctx, reduced, W.ambient)


@dataclass
class PartitionInfo:
    """Switching partition: cells C_U u C_sigma(U), exempt class D.

    Cell and exempt entries are vertex indices into the canonical order of
    canonical_grassmann(params).
    """

    partition: SwitchingPartition
    cells_by_U: dict  # U -> tuple of C_U vertex indices
    pairs: list  # (U, sigma(U)) with U <= sigma(U); U == sigma(U) for isotropic cells
    d_indices: tuple

    def cell_size_histogram(self) -> dict:
        hist: dict[int, int] = {}
        for c in self.partition.cells:
            hist[len(c)] = hist.get(len(c), 0) + 1
        return hist


def switching_partition(params: Parameters, sigma: Polarity) -> PartitionInfo:
    """The polarity-paired partition: one cell per unordered pair {U, sigma(U)} over the
    e-subspaces U of H, plus the exempt class D = (e+1)-subspaces inside H."""
    verts = _all_vertices(params)
    cells_by_U: dict[Subspace, list[int]] = {}
    d_indices = []
    for i, W in enumerate(verts):
        if _in_hyperplane(W):
            d_indices.append(i)
        else:
            U = intersect_hyperplane(W)
            cells_by_U.setdefault(U, []).append(i)
    pairs = []
    cells = []
    for U in sorted(cells_by_U):
        sU = apply_polarity(sigma, U)
        if sU < U:
            continue  # handled when sU was visited
        pairs.append((U, sU))
        members = list(cells_by_U[U])
        if sU != U:
            members += cells_by_U[sU]
        cells.append(tuple(sorted(members)))
    partition = SwitchingPartition(tuple(cells), tuple(d_indices))
    return PartitionInfo(
        partition,
        {U: tuple(v) for U, v in cells_by_U.items()},
        pairs,
        tuple(d_indices),
    )


@lru_cache(maxsize=None)
def twisted_grassmann(params: Parameters) -> Graph:
    """Twisted Grassmann graph on A u B: A-A adjacency at intersection dim e,
    A-B by containment, B-B at intersection dim e-2.  Vertex order: A then B,
    each canonically sorted.

    In points: an A-A pair meets in [e] points, an (e+1)-space contains an
    (e-1)-space when they share its [e-1] points, and a B-B pair meets in
    [e-2] points, where [m] = (q^m - 1)/(q - 1).
    """
    q, e = params.q, params.e
    if e < 2:
        raise DomainError("twisted Grassmann graph needs e >= 2 (B degenerates at e=1)")
    A, B, _ = split_A_B(params)
    labels = A + B
    points = [gaussian_binomial(m, 1, q) for m in (e, e - 1, e - 2)]
    targets = [[points[0], points[1]], [points[1], points[2]]]
    classes = [0] * len(A) + [1] * len(B)
    masks = [point_mask(w) for w in labels]
    return pair_count_graph(labels, masks, gaussian_binomial(params.n, 1, q), targets, classes)


@dataclass
class Lemma1Report:
    """Comparison of the lifted quotient on A against q*m_ij + delta_ij (q^e - 1)."""

    ok: bool
    small_quotient: list[list[int]]
    lifted_quotient: list[list[int]]
    expected: list[list[int]]
    mismatches: list


def verify_lemma1_counts(
    params: Parameters, cells: list[list[Subspace]]
) -> Lemma1Report:
    """Lift an equitable partition of J_q(2e,e) on the e-subspaces of H to the
    subgraph on A and verify the lifted quotient entrywise."""
    q, e = params.q, params.e
    h_verts = list(_h_subspaces(params, e))
    h_index = {U: i for i, U in enumerate(h_verts)}
    small = Graph(h_verts, _grassmann_rows(h_verts))
    idx_cells = [[h_index[U] for U in cell] for cell in cells]
    eq_small = check_equitable(small, idx_cells)
    if not eq_small.equitable:
        raise ParameterError(f"input partition is not equitable on J_q(2e,e): {eq_small.violation}")
    m = eq_small.quotient
    G = canonical_grassmann(params)
    groups: dict[Subspace, list[int]] = {}
    for i, W in enumerate(G.labels):
        if not _in_hyperplane(W):
            groups.setdefault(intersect_hyperplane(W), []).append(i)
    lifted = [[v for U in cell for v in groups[U]] for cell in cells]
    domain = [v for cell in lifted for v in cell]
    eq_lift = check_equitable(G, lifted, domain)
    if not eq_lift.equitable:
        return Lemma1Report(False, m, [], [], [("not equitable", eq_lift.violation)])
    t = len(cells)
    expected = [
        [q * m[i][j] + (q**e - 1 if i == j else 0) for j in range(t)] for i in range(t)
    ]
    mismatches = [
        (i, j, eq_lift.quotient[i][j], expected[i][j])
        for i in range(t)
        for j in range(t)
        if eq_lift.quotient[i][j] != expected[i][j]
    ]
    return Lemma1Report(not mismatches, m, eq_lift.quotient, expected, mismatches)


@dataclass
class TaReport:
    """Exhaustive check of the switched-adjacency rule on all A x D pairs."""

    ok: bool
    pairs_checked: int
    violations: list  # (W1 index, W2 index)


def verify_ta_rule(switched: Graph, params: Parameters, sigma: Polarity) -> TaReport:
    """After switching, W1 in C_U is adjacent to W2 in D exactly when W2
    contains sigma(U), that is shares all the points of sigma(U)."""
    info = switching_partition(params, sigma)
    d = list(info.d_indices)
    cells = list(info.cells_by_U.items())
    images = [apply_polarity(sigma, U) for U, _ in cells]
    points = np.array([gaussian_binomial(S.dim, 1, params.q) for S in images])
    d_masks = [point_mask(switched.labels[w2]) for w2 in d]
    nbits = gaussian_binomial(params.n, 1, params.q)
    contains = pair_count_matrix(list(map(point_mask, images)), d_masks, nbits) == points[:, None]
    members = [w1 for _, ws in cells for w1 in ws]
    expected = np.repeat(contains, [len(ws) for _, ws in cells], axis=0)
    violations = []
    for lo, rows in bit_panels(switched, members):
        wrong = rows[:, d] != expected[lo : lo + len(rows)]
        violations += [(members[lo + r], d[c]) for r, c in np.argwhere(wrong).tolist()]
    return TaReport(not violations, expected.size, violations)


# ---------------------------------------------------------------------------
# Designs


@dataclass(frozen=True)
class Design:
    """Incidence structure on the projective points of V.

    points: canonical list of 1-subspaces of V; blocks: sorted point-index
    tuples.  Block identity is by point set.
    """

    params: Parameters
    points: tuple[Subspace, ...]
    blocks: tuple[tuple[int, ...], ...]
    provenance: str

    @property
    def v(self) -> int:
        return len(self.points)

    def block_masks(self) -> list[int]:
        return [mask_of(b) for b in self.blocks]

    def to_json(self) -> dict:
        return {
            "params": {"q": self.params.q, "e": self.params.e},
            "provenance": self.provenance,
            "points": [p.to_json() for p in self.points],
            "blocks": [list(b) for b in self.blocks],
        }


def _block(mask: int) -> tuple[int, ...]:
    return tuple(bits_of(mask))


@lru_cache(maxsize=None)
def pg_design(params: Parameters) -> Design:
    """Geometric design: points [V], one block [W] per (e+1)-subspace W of V,
    blocks in the canonical order of their generating subspaces."""
    blocks = tuple(_block(point_mask(W)) for W in _all_vertices(params))
    if len(set(blocks)) != len(blocks):
        raise AssertionError("geometric design produced duplicate blocks")
    points = tuple(enumerate_subspaces(params.ctx, params.n, 1))
    return Design(params, points, blocks, "geometric")


def distorted_block(params: Parameters, sigma: Polarity, W: Subspace) -> int:
    """Point mask of [sigma(W cap H)] u [W \\ H] for W in A."""
    U = intersect_hyperplane(W)
    return point_mask(apply_polarity(sigma, U)) | point_mask(W) & ~point_mask(_hyperplane(params))


@lru_cache(maxsize=None)
def _phi_masks(params: Parameters, sigma: Polarity) -> tuple[int, ...]:
    """Point mask of phi(W) for every vertex W in canonical order: the
    distorted block for W in A, [W] for W in D."""
    return tuple(
        point_mask(W) if _in_hyperplane(W) else distorted_block(params, sigma, W)
        for W in _all_vertices(params)
    )


@lru_cache(maxsize=None)
def jt_design(params: Parameters, sigma: Polarity) -> Design:
    """Distorted pseudo-geometric design: blocks A' u B', sorted by
    point set."""
    masks = _phi_masks(params, sigma)
    if len(set(masks)) != len(masks):
        raise AssertionError("distorted design produced colliding blocks")
    points = tuple(enumerate_subspaces(params.ctx, params.n, 1))
    return Design(params, points, tuple(sorted(map(_block, masks))), "pseudo-geometric")


@dataclass
class DesignCheck:
    ok: bool
    v: int
    k: int | None
    lam: int | None
    violation: tuple | None = None


def verify_2_design(D: Design) -> DesignCheck:
    """Exhaustive 2-design check: every unordered point pair lies in the same
    number of blocks; returns (v, k, lambda) on success.  The pair counts
    come from the point columns, the transpose of `block_masks()`."""
    if D.v < 2:
        return DesignCheck(False, D.v, None, None, ("fewer than two points",))
    if not D.blocks:
        return DesignCheck(False, D.v, None, None, ("no blocks",))
    k = len(D.blocks[0])
    for b in D.blocks:
        if len(b) != k:
            return DesignCheck(False, D.v, None, None, ("non-uniform block size", len(b), k))
    incidence = np.zeros((D.v, len(D.blocks)), dtype=np.uint8)
    incidence[np.array(D.blocks, dtype=np.intp).T, np.arange(len(D.blocks))] = 1
    columns = masks_of_bits(incidence)
    lam = pair_count_matrix(columns, columns, len(D.blocks))
    values = lam[~np.eye(D.v, dtype=bool)]
    if (values == 0).any():
        return DesignCheck(False, D.v, k, None, ("some point pair in no block",))
    lo, hi = int(values.min()), int(values.max())
    if lo == hi:
        return DesignCheck(True, D.v, k, lo, None)
    # the witness is the first pair of count hi met when the pairs of each
    # (sorted) block are listed in block order
    for b in D.blocks:
        at = np.asarray(b, dtype=np.intp)
        hits = np.argwhere(np.triu(lam[at[:, None], at] == hi, 1))
        if len(hits):
            x, y = hits[0].tolist()
            return DesignCheck(False, D.v, k, None, ("pair count not constant", (b[x], b[y]), lo, hi))


def design_lambda(params: Parameters) -> int:
    """Closed formula for lambda: (q^(2e-1)-1)...(q^(e+1)-1) / ((q^(e-1)-1)...(q-1)),
    which is the Gaussian binomial [2e-1 choose e-1]_q."""
    return gaussian_binomial(2 * params.e - 1, params.e - 1, params.q)


def block_intersection_sizes(D: Design) -> dict[int, int]:
    """Multiset of |B1 cap B2| over all unordered block pairs, by size."""
    n = len(D.blocks)
    hist = np.zeros(D.v + 1, dtype=np.int64)
    masks = D.block_masks()
    for lo, counts in pair_counts(masks, masks, D.v):
        upper = np.arange(n) > np.arange(lo, lo + len(counts))[:, None]
        hist += np.bincount(counts[upper], minlength=D.v + 1)
    return {s: int(c) for s, c in enumerate(hist.tolist()) if c}


def block_graph(D: Design, s: int) -> Graph:
    """Graph on blocks, adjacent when the point-set intersection has size s."""
    return pair_count_graph(D.blocks, D.block_masks(), D.v, [[s]], [0] * len(D.blocks))


# ---------------------------------------------------------------------------
# The isomorphism maps


@dataclass
class VertexMap:
    """A verified-by-construction bijection onto the blocks of the distorted design."""

    mapping: tuple[int, ...]  # source vertex index -> block index in jt_design
    injective: bool


def phi_map(params: Parameters, sigma: Polarity) -> VertexMap:
    """phi(W) = [sigma(W cap H)] u [W \\ H] for W in A, [W] otherwise, as a map
    from the canonical (e+1)-subspace order to jt_design block indices."""
    block_index = {mask_of(b): i for i, b in enumerate(jt_design(params, sigma).blocks)}
    mapping = [block_index[m] for m in _phi_masks(params, sigma)]
    injective = len(set(mapping)) == len(mapping)
    return VertexMap(tuple(mapping), injective)


def psi_map(params: Parameters, sigma: Polarity) -> VertexMap:
    """Candidate isomorphism twisted_grassmann -> block graph of jt_design:
    W in A goes to its distorted block, B in B goes to [sigma(B)].

    The map is a conjectured realization; callers must confirm it with
    check_isomorphism."""
    block_index = {mask_of(b): i for i, b in enumerate(jt_design(params, sigma).blocks)}
    _, B, _ = split_A_B(params)
    a_masks = [
        m for W, m in zip(_all_vertices(params), _phi_masks(params, sigma)) if not _in_hyperplane(W)
    ]
    b_masks = [point_mask(apply_polarity(sigma, Bsub)) for Bsub in B]
    mapping = [block_index[m] for m in a_masks + b_masks]
    injective = len(set(mapping)) == len(mapping)
    return VertexMap(tuple(mapping), injective)


def standard_polarity(params: Parameters) -> Polarity:
    return make_polarity(params.ctx, params.e)
