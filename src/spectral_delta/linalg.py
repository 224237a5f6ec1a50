"""Exact linear algebra over the integers and over fields.

Matrices hold arbitrary-precision Python ints; nothing here ever rounds.
The Smith reduction uses minimum-absolute-value pivoting with explicit
remainder handling.  The full decomposition reduces A inside the block
[[A, I], [I]], so the unimodular row and column transforms build up
beside and below A under the same operations.  Rational ranks come from
fraction-free (Bareiss) elimination, prime-field ranks from ordinary
modular elimination.  Sparse matrices with many +-1 entries, such as
simplicial boundary maps, can first have their unit pivots cleared by
`_eliminate_unit_pivots`, leaving the dense kernels only the remainder.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping, Sequence


class IntMatrix:
    """Dense row-major integer matrix."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data=None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[0] * cols for _ in range(rows)]
        else:
            if len(data) != rows or any(len(r) != cols for r in data):
                raise ValueError("data shape does not match dimensions")
            self.data = [list(r) for r in data]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        rows = [list(r) for r in rows]
        m = len(rows)
        n = len(rows[0]) if rows else 0
        return cls(m, n, rows)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        out = cls(n, n)
        for i in range(n):
            out.data[i][i] = 1
        return out

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        ot = list(zip(*other.data)) if other.data else []
        out = IntMatrix(self.rows, other.cols)
        for i, row in enumerate(self.data):
            out.data[i] = [sum(a * b for a, b in zip(row, col)) for col in ot]
        return out

    def diagonal(self) -> list[int]:
        return [self.data[i][i] for i in range(min(self.rows, self.cols))]

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols})"


@dataclass(frozen=True)
class SnfResult:
    """Smith decomposition U @ A @ V == D with U, V unimodular and the
    diagonal of D nonnegative with each entry dividing the next."""
    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    @property
    def invariant_factors(self) -> list[int]:
        return [d for d in self.D.diagonal() if d != 0]


def _snf_core(M: list[list[int]], m: int, n: int) -> list[int]:
    """Reduce the leading m x n block of M to Smith form in place and
    return its nonzero diagonal.  Row operations run the full length of
    their rows and column operations down all of M, so on the augmented
    block [[A, I_m], [I_n]] U builds up beside A and V below it."""

    def row_sub(i, k, q, start=None):
        # row i -= q * row k; columns before `start` (default: k, right
        # for clearing calls where k is the stage) are known zeros
        Mi, Mk = M[i], M[k]
        for j in range(k if start is None else start, len(Mi)):
            Mi[j] -= q * Mk[j]

    def col_sub(j, k, q):
        for i in range(k, len(M)):
            Mi = M[i]
            Mi[j] -= q * Mi[k]

    # Each round re-selects the globally smallest nonzero entry as the
    # pivot and clears with nearest-integer quotients, so every residue
    # has magnitude at most half the pivot.  A round that leaves any
    # residue (or folds a non-divisible row) therefore at least halves
    # the next pivot; entry growth stays polynomial in practice where
    # mid-pass remainder promotion made entries square each pass.
    diag: list[int] = []
    k = 0
    limit = min(m, n)
    while k < limit:
        best = None
        bi = bj = -1
        for i in range(k, m):
            Mi = M[i]
            for j in range(k, n):
                v = Mi[j]
                if v:
                    a = v if v > 0 else -v
                    if best is None or a < best:
                        best, bi, bj = a, i, j
                        if a == 1:
                            break
            if best == 1:
                break
        if best is None:
            break
        if bi != k:
            M[bi], M[k] = M[k], M[bi]
        if bj != k:
            for row in M:
                row[bj], row[k] = row[k], row[bj]
        if M[k][k] < 0:
            M[k] = [-x for x in M[k]]
        a = M[k][k]
        half = a // 2

        dirty = False
        for i in range(k + 1, m):
            x = M[i][k]
            if x:
                row_sub(i, k, (x + half) // a)
                dirty = dirty or M[i][k] != 0
        if dirty:
            continue
        for j in range(k + 1, n):
            x = M[k][j]
            if x:
                col_sub(j, k, (x + half) // a)
                dirty = dirty or M[k][j] != 0
        if dirty:
            continue

        # pivot must divide the rest of the submatrix; fold an offending
        # row (always past row 0, so 0 means none) into the pivot row and
        # reduce, leaving a residue <= a/2
        bad = 0
        for i in range(k + 1, m):
            Mi = M[i]
            for j in range(k + 1, n):
                if Mi[j] % a:
                    bad = i
                    break
            if bad:
                break
        if bad:
            row_sub(k, bad, -1, start=k)
            for j in range(k + 1, n):
                x = M[k][j]
                if x:
                    col_sub(j, k, (x + half) // a)
            continue
        diag.append(a)
        k += 1
    return diag


def smith_normal_form(A: IntMatrix) -> SnfResult:
    """Full Smith decomposition of an integer matrix.

    Returns U, D, V with U @ A @ V == D, both transforms unimodular
    (determinant +-1), D diagonal with nonnegative entries forming a
    divisibility chain d1 | d2 | ... followed by zeros.
    """
    m, n = A.rows, A.cols
    M = [row + u for row, u in zip(A.data, IntMatrix.identity(m).data)]
    M += IntMatrix.identity(n).data
    _snf_core(M, m, n)
    return SnfResult(IntMatrix(m, m, [row[n:] for row in M[:m]]),
                     IntMatrix(m, n, [row[:n] for row in M[:m]]),
                     IntMatrix(n, n, M[m:]))


def snf_diagonal(data: Sequence[Sequence[int]], m: int, n: int) -> list[int]:
    """Nonzero invariant factors of an integer matrix given as row lists."""
    M = [list(r) for r in data]
    return _snf_core(M, m, n)


def rational_rank(data: Sequence[Sequence[int]], m: int, n: int) -> int:
    """Rank over the rationals via fraction-free Bareiss elimination."""
    M = [list(r) for r in data]
    prev = 1
    rank = 0
    row = 0
    for col in range(n):
        if row == m:
            break
        p = next((i for i in range(row, m) if M[i][col]), None)
        if p is None:
            continue
        if p != row:
            M[row], M[p] = M[p], M[row]
        piv = M[row][col]
        Mr = M[row]
        for i in range(row + 1, m):
            Mi = M[i]
            t = Mi[col]
            for j in range(col + 1, n):
                Mi[j] = (piv * Mi[j] - t * Mr[j]) // prev
            Mi[col] = 0
        prev = piv
        rank += 1
        row += 1
    return rank


def mod_p_rank(data: Sequence[Sequence[int]], m: int, n: int, p: int) -> int:
    """Rank over the field with p elements (p prime)."""
    M = [[x % p for x in r] for r in data]
    rank = 0
    row = 0
    for col in range(n):
        if row == m:
            break
        piv = next((i for i in range(row, m) if M[i][col]), None)
        if piv is None:
            continue
        if piv != row:
            M[row], M[piv] = M[piv], M[row]
        inv = pow(M[row][col], -1, p)
        Mr = M[row]
        for j in range(col, n):
            Mr[j] = Mr[j] * inv % p
        for i in range(row + 1, m):
            t = M[i][col]
            if t:
                Mi = M[i]
                for j in range(col, n):
                    Mi[j] = (Mi[j] - t * Mr[j]) % p
        rank += 1
        row += 1
    return rank


def _eliminate_unit_pivots(cols: Sequence[Mapping[int, int]]
                           ) -> tuple[list[int], list[list[int]]]:
    """Clear the +-1 pivots of a sparse integer matrix.

    `cols` lists the columns as `{row: entry}` maps.  Each step takes the
    shortest column that still holds a +-1 entry and, within it, the +-1
    entry whose row has the fewest entries (ties go to the lower index),
    clears that row with integer column operations, then drops the row
    and the column.  Every operation is unimodular over Z, so the Smith
    divisors of the matrix are `len(pivots)` ones followed by those of
    the leftover, and its rank over Q or any F_p is `len(pivots)` plus
    the rank of the leftover.

    Returns `(pivots, leftover)`.  `pivots` lists the rows pivoted on,
    in the order of the steps, each once.  At the step on row r the
    pivot column is an integer combination of input columns with a +-1
    in row r and no entry in an earlier pivot row; the homology kernel
    uses this to clear the boundary map one degree down.  The leftover
    holds only its nonzero rows and columns, as dense rows in index
    order, and is `[]` when nothing is left.  `cols` is not modified.
    """
    cols = [dict(col) for col in cols]
    rows: dict[int, set[int]] = {}   # row -> the columns with an entry there
    for c, col in enumerate(cols):
        for r in col:
            members = rows.get(r)
            if members is None:
                rows[r] = {c}
            else:
                members.add(c)
    # (length, index) entries, each queued at most once; a column changed
    # by a step is pushed again, and a stale length is skipped
    heap = [(len(col), c) for c, col in enumerate(cols) if col]
    queued = set(heap)
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    pivots = []
    while heap:
        size, c = entry = pop(heap)
        queued.discard(entry)
        col = cols[c]
        if len(col) != size:
            continue
        r = None
        for u, x in col.items():
            if x == 1 or x == -1:
                k = len(rows[u])
                if r is None or k < best or (k == best and u < r):
                    r, best = u, k
        if r is None:
            continue
        # subtracting q * column c from every other column with an entry
        # in row r clears that row; the rest of column c would then be
        # cleared by row operations that touch nothing else, so column c
        # leaves with row r
        sign = col.pop(r)
        cols[c] = {}
        for r2 in col:
            rows[r2].discard(c)
        members = rows.pop(r)
        members.discard(c)
        for c2 in members:
            col2 = cols[c2]
            q = col2.pop(r) * sign
            for r2, x in col.items():
                old = col2.get(r2)
                if old is None:
                    col2[r2] = -q * x
                    rows[r2].add(c2)
                elif old == q * x:
                    del col2[r2]
                    rows[r2].discard(c2)
                else:
                    col2[r2] = old - q * x
            entry = (len(col2), c2)
            if col2 and entry not in queued:
                queued.add(entry)
                push(heap, entry)
        pivots.append(r)
    live_rows = sorted(r for r, members in rows.items() if members)
    live_cols = [col for col in cols if col]
    if not live_cols:
        return pivots, []
    index = {r: i for i, r in enumerate(live_rows)}
    leftover = [[0] * len(live_cols) for _ in live_rows]
    for j, col in enumerate(live_cols):
        for r, x in col.items():
            leftover[index[r]][j] = x
    return pivots, leftover
