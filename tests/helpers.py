"""Helpers that only the tests use."""

from typing import Callable, Sequence

from gmtwist.construct import _grassmann_rows
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
