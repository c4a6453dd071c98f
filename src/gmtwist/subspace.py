"""Canonical subspaces of GF(q)^n and the symplectic polarity of a hyperplane.

A subspace is identified with its reduced-row-echelon basis, so equality,
hashing and ordering are purely structural.  Its projective points are cached
as one bitmask integer, `point_mask`: bit i marks the i-th point of
GF(q)^ambient in canonical order.  Point-set intersections, containment and
the blocks of the designs are bit operations on these masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, total_ordering
from itertools import combinations, product
from math import prod

from .errors import BudgetExceededError, DomainError, ParameterError
from .gf import FieldContext, rank_of_rows, rref_rows

DEFAULT_ENUM_BUDGET = 10**7


@total_ordering
@dataclass(frozen=True)
class Subspace:
    """A dim-k subspace of GF(q)^ambient, held as its canonical RREF basis (no zero rows)."""

    ctx: FieldContext
    ambient: int
    basis: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def sort_key(self) -> tuple:
        return tuple(x for row in self.basis for x in row)

    def __lt__(self, other: "Subspace") -> bool:
        return (self.dim, self.sort_key()) < (other.dim, other.sort_key())

    def __repr__(self):
        return f"Subspace(q={self.ctx.q}, n={self.ambient}, basis={self.basis})"

    def to_json(self) -> list[list[int]]:
        return [list(r) for r in self.basis]


def span(ctx: FieldContext, rows: list[list[int]], ambient: int) -> Subspace:
    """Subspace spanned by `rows`, in canonical RREF form."""
    rr, rank, _ = rref_rows(ctx, rows, ambient)
    return Subspace(ctx, ambient, tuple(tuple(r) for r in rr[:rank]))


def _check_compatible(U: Subspace, W: Subspace) -> None:
    if U.ctx != W.ctx or U.ambient != W.ambient:
        raise ParameterError(
            f"subspace mismatch: GF({U.ctx.q})^{U.ambient} vs GF({W.ctx.q})^{W.ambient}"
        )


def dim_intersection(U: Subspace, W: Subspace) -> int:
    """dim(U cap W) = dim U + dim W - rank(stacked bases)."""
    _check_compatible(U, W)
    stacked = [list(r) for r in U.basis] + [list(r) for r in W.basis]
    return U.dim + W.dim - rank_of_rows(U.ctx, stacked, U.ambient)


def subspace_sum(U: Subspace, W: Subspace) -> Subspace:
    _check_compatible(U, W)
    return span(U.ctx, [list(r) for r in U.basis] + [list(r) for r in W.basis], U.ambient)


def contains(U: Subspace, W: Subspace) -> bool:
    """Whether W is contained in U."""
    _check_compatible(U, W)
    if W.dim > U.dim:
        return False
    stacked = [list(r) for r in U.basis] + [list(r) for r in W.basis]
    return rank_of_rows(U.ctx, stacked, U.ambient) == U.dim


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dim subspaces of an n-dim space over GF(q); exact integers."""
    if not 0 <= k <= n:
        return 0
    num = prod(q ** (n - i) - 1 for i in range(k))
    den = prod(q ** (i + 1) - 1 for i in range(k))
    assert num % den == 0
    return num // den


def enumerate_subspaces(
    ctx: FieldContext, n: int, k: int, budget: int = DEFAULT_ENUM_BUDGET
) -> list[Subspace]:
    """All k-dim subspaces of GF(q)^n in canonical order.

    Generation runs per pivot-column pattern (each pattern emits exactly the
    RREF matrices with those pivots, so no deduplication is needed), then the
    result is sorted by the canonical basis key.
    """
    if not 0 <= k <= n:
        raise ParameterError(f"need 0 <= k <= n, got k={k}, n={n}")
    count = gaussian_binomial(n, k, ctx.q)
    if count > budget:
        raise BudgetExceededError(
            f"enumerating {count} subspaces (n={n}, k={k}, q={ctx.q}) exceeds budget {budget}"
        )
    if k == 0:
        return [Subspace(ctx, n, ())]
    q = ctx.q
    out: list[Subspace] = []
    for pivots in combinations(range(n), k):
        pivot_set = set(pivots)
        free_pos = [
            (i, j) for i in range(k) for j in range(pivots[i] + 1, n) if j not in pivot_set
        ]
        for values in product(range(q), repeat=len(free_pos)):
            rows = [[0] * n for _ in range(k)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, j), v in zip(free_pos, values):
                rows[i][j] = v
            out.append(Subspace(ctx, n, tuple(tuple(r) for r in rows)))
    assert len(out) == count
    out.sort()
    return out


def _point_index(q: int, vec: list[int]) -> int:
    """Index of the projective point of a vector whose first nonzero entry is 1,
    in canonical order: the points with their leading 1 further right come
    first, and points with the same leading position are in the lexicographic
    order of the entries after it."""
    lead = next(j for j, x in enumerate(vec) if x)
    index = 0
    for x in vec[lead + 1 :]:
        index = index * q + x
    return (q ** (len(vec) - 1 - lead) - 1) // (q - 1) + index


@lru_cache(maxsize=None)
def point_mask(W: Subspace) -> int:
    """Bitmask over the projective points of GF(q)^ambient marking the points of W.

    With an RREF basis, a combination whose first nonzero coefficient is 1
    already has leading entry 1 (every later row is zero up to its own, later,
    pivot), so each point of W is hit exactly once by row + (a vector of the
    span of the rows below it), and nothing needs normalising.
    """
    ctx, q = W.ctx, W.ctx.q
    mask = 0
    below = [[0] * W.ambient]  # the vectors of the span of the rows below
    for a in reversed(range(W.dim)):
        row = W.basis[a]
        for v in below:
            mask |= 1 << _point_index(q, [ctx.add(x, y) for x, y in zip(row, v)])
        if a:
            below = [
                [ctx.add(ctx.mul(c, x), y) for x, y in zip(row, v)] for c in range(q) for v in below
            ]
    return mask


@dataclass(frozen=True)
class Polarity:
    """Symplectic polarity of the hyperplane H = span(e_1..e_2e) of GF(q)^(2e+1).

    Maps a subspace U of H to its orthogonal complement within H under the
    alternating nondegenerate Gram matrix `gram` (2e x 2e).  Accepts subspaces
    given in ambient 2e (bare H coordinates) or ambient 2e+1 (embedded, last
    coordinate zero).
    """

    ctx: FieldContext
    e: int
    gram: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = 2 * self.e
        if len(self.gram) != n or any(len(r) != n for r in self.gram):
            raise ParameterError(f"Gram matrix must be {n}x{n}")
        for i in range(n):
            if self.gram[i][i] != 0:
                raise ParameterError("alternating form requires zero diagonal")
            for j in range(n):
                if self.gram[j][i] != self.ctx.neg(self.gram[i][j]):
                    raise ParameterError("Gram matrix must be skew-symmetric")
        if rank_of_rows(self.ctx, [list(r) for r in self.gram], n) != n:
            raise ParameterError("Gram matrix must be nondegenerate")


def make_polarity(ctx: FieldContext, e: int) -> Polarity:
    """Standard symplectic polarity with block Gram matrix [[0, I_e], [-I_e, 0]]."""
    if e < 1:
        raise ParameterError(f"need e >= 1, got {e}")
    n = 2 * e
    neg1 = ctx.neg(1)
    gram = [[0] * n for _ in range(n)]
    for i in range(e):
        gram[i][e + i] = 1
        gram[e + i][i] = neg1
    return Polarity(ctx, e, tuple(tuple(r) for r in gram))


def make_polarity_from_gram(ctx: FieldContext, e: int, gram) -> Polarity:
    """Polarity from an explicit alternating nondegenerate Gram matrix (validated)."""
    return Polarity(ctx, e, tuple(tuple(r) for r in gram))


def nullspace(ctx: FieldContext, rows: list[list[int]], ncols: int) -> Subspace:
    """Canonical right nullspace {x : rows . x = 0} as a subspace of GF(q)^ncols."""
    rr, rank, pivots = rref_rows(ctx, rows, ncols)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for i, p in enumerate(pivots):
            vec[p] = ctx.neg(rr[i][f])
        basis.append(vec)
    return span(ctx, basis, ncols)


def apply_polarity(sigma: Polarity, U: Subspace) -> Subspace:
    """Orthogonal complement of U within H; dim = 2e - dim U; same ambient as U."""
    ctx, e = sigma.ctx, sigma.e
    n = 2 * e
    if U.ctx != ctx:
        raise ParameterError("field mismatch between polarity and subspace")
    if U.ambient == n:
        embedded = False
        rows = [list(r) for r in U.basis]
    elif U.ambient == n + 1:
        if any(r[n] != 0 for r in U.basis):
            raise DomainError("subspace is not contained in the hyperplane H")
        embedded = True
        rows = [list(r[:n]) for r in U.basis]
    else:
        raise ParameterError(f"ambient {U.ambient} incompatible with e={e}")
    # constraint matrix: (basis . gram) x^T = 0
    constraints = []
    for row in rows:
        c = [0] * n
        for j in range(n):
            acc = 0
            for i in range(n):
                if row[i] and sigma.gram[i][j]:
                    acc = ctx.add(acc, ctx.mul(row[i], sigma.gram[i][j]))
            c[j] = acc
        constraints.append(c)
    perp = nullspace(ctx, constraints, n)
    if not embedded:
        return perp
    return Subspace(ctx, n + 1, tuple(tuple(r) + (0,) for r in perp.basis))


def is_totally_isotropic(sigma: Polarity, U: Subspace) -> bool:
    """Whether U is contained in its polar image (fixed points of sigma at dim e)."""
    return contains(apply_polarity(sigma, U), U)
