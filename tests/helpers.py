"""Helpers that only the tests use."""

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from gmtwist.charpoly import _MAX_DIM, char_polys_exact, packed_rows
from gmtwist.construct import _grassmann_rows
from gmtwist.errors import ParameterError
from gmtwist.gf import make_field
from gmtwist.graph import Graph
from gmtwist.subspace import enumerate_subspaces


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


def mask_contains(U_mask: int, W_mask: int) -> bool:
    """Whether the point set W is contained in the point set U."""
    return W_mask & ~U_mask == 0


def grassmann(n: int, k: int, q: int) -> Graph:
    """J_q(n,k) on the k-subspaces of GF(q)^n in canonical order, with the
    adjacency of the canonical Grassmann graph (`_grassmann_rows`)."""
    verts = enumerate_subspaces(make_field(q), n, k)
    return Graph(verts, _grassmann_rows(verts))


def adjacency_matrix(adj_rows, n: int) -> np.ndarray:
    """Dense n x n uint8 0/1 matrix of adjacency rows given as int bitmasks."""
    packed = packed_rows(adj_rows, n).view(np.uint8)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little")


def char_poly_exact(adj_rows: list[int], n: int) -> tuple[int, ...]:
    """Exact char poly det(xI - A) of an adjacency matrix given as row bitmasks.

    Returns ascending integer coefficients (c_0, ..., c_n) with c_n = 1.
    """
    if n >= _MAX_DIM:
        raise ParameterError(f"matrix dimension {n} exceeds charpoly limit {_MAX_DIM}")
    return char_polys_exact(adjacency_matrix(adj_rows, n)[None])[0]


@dataclass(frozen=True)
class CharPoly:
    """Exact det(xI - A); coeffs[i] is the coefficient of x^i, monic."""

    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def char_poly(G: Graph) -> CharPoly:
    """Exact integer characteristic polynomial of the adjacency matrix: the
    oracle that the Godsil-McKay witness `graph.gm_witness` is tested against."""
    return CharPoly(char_poly_exact(G.adj, G.n))
