"""Exact arithmetic in GF(q) for prime powers q <= 16, plus RREF of row lists.

Elements of GF(p^m) are integers in [0, q): the integer a with base-p digits
(d_0, ..., d_{m-1}) stands for the polynomial d_0 + d_1 x + ... + d_{m-1} x^{m-1}
reduced modulo a fixed monic irreducible modulus.  The modulus is the
lexicographically smallest monic irreducible of degree m over GF(p), where
"smallest" means smallest integer encoding of the non-leading coefficients.
Full add/mul tables are precomputed, so every operation is a table lookup and
the field axioms are exhaustively testable.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Sequence

from .errors import ParameterError

MAX_FIELD_ORDER = 16


def _factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, m) with q = p^m, p prime, or raise ParameterError."""
    if not isinstance(q, int) or q < 2:
        raise ParameterError(f"field order must be an integer >= 2, got {q!r}")
    for p in range(2, q + 1):
        if q % p == 0:
            m = 0
            r = q
            while r % p == 0:
                r //= p
                m += 1
            if r != 1:
                raise ParameterError(f"{q} is not a prime power")
            return p, m
    raise ParameterError(f"{q} is not a prime power")


def _poly_mulmod(a: Sequence[int], b: Sequence[int], modulus: Sequence[int], p: int) -> list[int]:
    """Multiply two coefficient lists mod (modulus, p); result has len(modulus)-1 coeffs."""
    m = len(modulus) - 1
    prod_coeffs = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod_coeffs[i + j] = (prod_coeffs[i + j] + ai * bj) % p
    # reduce by the monic modulus
    for deg in range(len(prod_coeffs) - 1, m - 1, -1):
        c = prod_coeffs[deg]
        if c:
            prod_coeffs[deg] = 0
            for j in range(m):
                prod_coeffs[deg - m + j] = (prod_coeffs[deg - m + j] - c * modulus[j]) % p
    out = prod_coeffs[:m]
    out += [0] * (m - len(out))
    return out


def _poly_divides(d: Sequence[int], f: Sequence[int], p: int) -> bool:
    """Whether monic polynomial d divides f over GF(p)."""
    rem = list(f)
    dd = len(d) - 1
    while len(rem) - 1 >= dd and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dd:
            break
        lead = rem[-1]
        shift = len(rem) - 1 - dd
        for j in range(len(d)):
            rem[shift + j] = (rem[shift + j] - lead * d[j]) % p
    return not any(rem)


def _is_irreducible(f: Sequence[int], p: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg(f)/2."""
    deg = len(f) - 1
    if f[0] == 0:  # divisible by x
        return False
    for d_deg in range(1, deg // 2 + 1):
        for tail in product(range(p), repeat=d_deg):
            divisor = list(tail) + [1]
            if _poly_divides(divisor, f, p):
                return False
    return True


def _lowest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Monic irreducible of degree m over GF(p) with smallest non-leading coefficient encoding."""
    for code in range(p**m):
        tail = [(code // p**i) % p for i in range(m)]
        f = tail + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise AssertionError(f"no irreducible of degree {m} over GF({p})")  # unreachable


class FieldContext:
    """Immutable arithmetic context for GF(q), q = p^m <= 16."""

    __slots__ = ("q", "p", "m", "modulus", "_add", "_mul", "_neg", "_inv")

    def __init__(self, q: int):
        p, m = _factor_prime_power(q)
        if q > MAX_FIELD_ORDER:
            raise ParameterError(f"field order {q} exceeds supported maximum {MAX_FIELD_ORDER}")
        self.q = q
        self.p = p
        self.m = m
        self.modulus: tuple[int, ...] = () if m == 1 else _lowest_irreducible(p, m)

        def digits(a: int) -> list[int]:
            return [(a // p**i) % p for i in range(m)]

        def undigits(ds: Sequence[int]) -> int:
            return sum(d * p**i for i, d in enumerate(ds))

        add = [[0] * q for _ in range(q)]
        mul = [[0] * q for _ in range(q)]
        for a in range(q):
            da = digits(a)
            for b in range(q):
                db = digits(b)
                add[a][b] = undigits([(x + y) % p for x, y in zip(da, db)])
                if m == 1:
                    mul[a][b] = (a * b) % p
                else:
                    mul[a][b] = undigits(_poly_mulmod(da, db, self.modulus, p))
        self._add = tuple(tuple(r) for r in add)
        self._mul = tuple(tuple(r) for r in mul)
        neg = [0] * q
        inv = [0] * q
        for a in range(q):
            for b in range(q):
                if add[a][b] == 0:
                    neg[a] = b
                if a != 0 and mul[a][b] == 1:
                    inv[a] = b
        self._neg = tuple(neg)
        self._inv = tuple(inv)

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.q})")
        return self._inv[a]

    def __eq__(self, other):
        return isinstance(other, FieldContext) and other.q == self.q

    def __hash__(self):
        return hash(("FieldContext", self.q))

    def __repr__(self):
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def make_field(q: int) -> FieldContext:
    """Field context for GF(q); deterministic modulus choice. q must be a prime power <= 16."""
    return FieldContext(q)


def rref_rows(ctx: FieldContext, rows: list[list[int]], ncols: int) -> tuple[list[list[int]], int, list[int]]:
    """In-place-style reduced row echelon form on a list of rows; returns (rows, rank, pivot_cols)."""
    work = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = ctx.inv(work[r][c])
        if inv != 1:
            work[r] = [ctx.mul(inv, x) for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [ctx.sub(x, ctx.mul(f, y)) for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    rank = r
    # zero rows last
    work = work[:rank] + [[0] * ncols for _ in range(len(work) - rank)]
    return work, rank, pivots


def rank_of_rows(ctx: FieldContext, rows: list[list[int]], ncols: int) -> int:
    """Rank only; same elimination as rref_rows but without back-substitution bookkeeping."""
    work = [list(r) for r in rows]
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = ctx.inv(work[r][c])
        prow = work[r] if inv == 1 else [ctx.mul(inv, x) for x in work[r]]
        work[r] = prow
        for i in range(r + 1, len(work)):
            if work[i][c] != 0:
                f = work[i][c]
                work[i] = [ctx.sub(x, ctx.mul(f, y)) for x, y in zip(work[i], prow)]
        r += 1
        if r == len(work):
            break
    return r
