"""Simple undirected graphs on dense labels 0..n-1, stored as row bitsets.

One Python int per vertex holds its neighbourhood, so neighbourhood scans,
intersections and component sweeps are word-parallel.  Graphs are immutable
after construction and safe to share.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

MAX_VERTICES = 2048
# 0..MAX_VERTICES as one shared int object each (CPython caches only up to
# 256): results a caller keeps, such as matching witnesses, refer to these
# instead of holding ints of their own
_LABELS = tuple(range(MAX_VERTICES + 1))


class GraphError(ValueError):
    """Invalid graph construction or query."""


class Graph6Error(GraphError):
    """Malformed graph6 input; ``offset`` is the offending byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _check_order(n: int) -> None:
    """GraphError unless a graph may have n vertices: 0 <= n <= MAX_VERTICES."""
    if n < 0:
        raise GraphError(f"vertex count must be non-negative, got {n}")
    if n > MAX_VERTICES:
        raise GraphError(f"vertex count {n} exceeds the supported cap {MAX_VERTICES}")


class Graph:
    """Immutable simple graph; adjacency kept as one int bitmask per vertex."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        _check_order(n)
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise GraphError(f"loop edge ({u},{u}) not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", tuple(rows))

    @classmethod
    def _from_rows_unchecked(cls, n: int, rows: tuple[int, ...]) -> Graph:
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "rows", rows)
        return g

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Graph is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges (u, v) with u < v in lexicographic order."""
        for u in range(self.n):
            nb = self.rows[u] >> (u + 1) << (u + 1)
            while nb:
                v = (nb & -nb).bit_length() - 1
                nb &= nb - 1
                yield (u, v)

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted((r.bit_count() for r in self.rows), reverse=True))


def _bits(mask: int) -> Iterator[int]:
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph with exactly the given edges, deduplicated."""
    return Graph(n, edges)


def complete(n: int) -> Graph:
    _check_order(n)
    full = (1 << n) - 1
    return Graph._from_rows_unchecked(n, tuple(full ^ (1 << v) for v in range(n)))


def empty(n: int) -> Graph:
    return Graph(n)


def union(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union; vertices of g2 are relabelled by offset g1.n."""
    n = g1.n + g2.n
    _check_order(n)
    rows = list(g1.rows) + [r << g1.n for r in g2.rows]
    return Graph._from_rows_unchecked(n, tuple(rows))


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus all g1.n * g2.n cross edges."""
    n = g1.n + g2.n
    _check_order(n)
    left_mask = (1 << g1.n) - 1
    right_mask = ((1 << g2.n) - 1) << g1.n
    rows = [r | right_mask for r in g1.rows]
    rows += [(r << g1.n) | left_mask for r in g2.rows]
    return Graph._from_rows_unchecked(n, tuple(rows))


def min_degree(g: Graph) -> int:
    if g.n == 0:
        raise GraphError("minimum degree undefined for the empty graph")
    return min(r.bit_count() for r in g.rows)


def _closure_mask(rows: Sequence[int], start: int) -> int:
    comp = 1 << start
    frontier = comp
    while frontier:
        nxt = 0
        f = frontier
        while f:
            u = (f & -f).bit_length() - 1
            f &= f - 1
            nxt |= rows[u]
        frontier = nxt & ~comp
        comp |= frontier
    return comp


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return False
    return _closure_mask(g.rows, 0) == (1 << g.n) - 1


def components(g: Graph) -> list[frozenset[int]]:
    """Connected components as vertex sets, ordered by smallest member."""
    out: list[frozenset[int]] = []
    unseen = (1 << g.n) - 1
    while unseen:
        v = (unseen & -unseen).bit_length() - 1
        comp = _closure_mask(g.rows, v)
        out.append(frozenset(_bits(comp)))
        unseen &= ~comp
    return out


# ---------------------------------------------------------------------------
# graph6 codec
#
# Header byte 63+n for n <= 62; '~' + 3 bytes for n < 2^18 and '~~' + 6 bytes
# beyond are accepted on input.  The upper triangle is packed in column order
# x(0,1), x(0,2), x(1,2), x(0,3), ..., zero-padded to a multiple of six bits,
# each 6-bit group (most significant bit first) stored as value+63.


def to_graph6(g: Graph) -> str:
    if g.n > 62:
        raise GraphError(f"graph6 output supports n <= 62, got {g.n}")
    out = [chr(63 + g.n)]
    acc = 0
    filled = 0
    for j in range(1, g.n):
        for i in range(j):
            acc = acc << 1 | (g.rows[i] >> j & 1)
            filled += 1
            if filled == 6:
                out.append(chr(63 + acc))
                acc = 0
                filled = 0
    if filled:
        out.append(chr(63 + (acc << (6 - filled))))
    return "".join(out)


def _g6_byte(s: str, pos: int) -> int:
    if pos >= len(s):
        raise Graph6Error("truncated graph6 string", len(s))
    val = ord(s[pos]) - 63
    if not 0 <= val <= 63:
        raise Graph6Error(f"invalid graph6 byte {s[pos]!r}", pos)
    return val


_G6_BLOCK = 256  # rows of the symmetric matrix that from_graph6 packs at once


def from_graph6(text: str) -> Graph:
    s = text.strip()
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    if s.startswith(">>graph6<<"):
        s = s[10:]
    pos = 0
    first = _g6_byte(s, 0)
    if first == 63:  # '~' prefix forms
        second = _g6_byte(s, 1)
        if second == 63:
            n = 0
            for pos_ in range(2, 8):
                n = n << 6 | _g6_byte(s, pos_)
            pos = 8
        else:
            n = second
            for pos_ in (2, 3):
                n = n << 6 | _g6_byte(s, pos_)
            pos = 4
    else:
        n = first
        pos = 1
    if n > MAX_VERTICES:
        raise Graph6Error(f"graph on {n} vertices exceeds the cap {MAX_VERTICES}", 0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(s) != pos + nbytes:
        raise Graph6Error(
            f"expected {nbytes} adjacency bytes for n={n}, got {len(s) - pos}",
            min(len(s), pos + nbytes),
        )
    # code points, not an ASCII encoding, so that a non-ASCII character is
    # reported as a bad byte at its own offset
    codes = np.frombuffer(s[pos:].encode("utf-32-le", "surrogatepass"), dtype="<u4")
    bad = np.flatnonzero((codes < 63) | (codes > 126))
    if bad.size:
        _g6_byte(s, pos + int(bad[0]))  # raises the bad-byte error at the first one
    bits = np.unpackbits((codes - 63).astype(np.uint8)[:, None], axis=1)[:, 2:].ravel()
    if bits[nbits:].any():
        raise Graph6Error("nonzero padding bits", pos + nbytes - 1)
    # the column-order upper triangle is the row-major strict lower triangle,
    # filled row by row; the symmetric rows are packed a block at a time, so
    # the triangle is the only n x n array
    lower = np.zeros((n, n), dtype=np.uint8)
    start = 0
    for j in range(1, n):
        lower[j, :j] = bits[start : start + j]
        start += j
    rows: list[int] = []
    for lo in range(0, n, _G6_BLOCK):
        rows += pack_rows(lower[lo : lo + _G6_BLOCK] | lower[:, lo : lo + _G6_BLOCK].T)
    return Graph._from_rows_unchecked(n, tuple(rows))


def byte_rows(rows: Sequence[int], n: int) -> np.ndarray:
    """uint8 matrix whose row i holds the bitset rows[i] as ceil(n/8) bytes,
    little-endian in bytes and in bits, as ``np.packbits(..., bitorder="little")``."""
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(r.to_bytes(width, "little") for r in rows), dtype=np.uint8)
    return packed.reshape(len(rows), width)


def dense_rows(rows: Sequence[int], n: int) -> np.ndarray:
    """0/1 uint8 matrix whose row i holds bits 0..n-1 of the bitset rows[i]."""
    return np.unpackbits(byte_rows(rows, n), axis=1, count=n, bitorder="little")


def pack_rows(a: np.ndarray) -> tuple[int, ...]:
    """Inverse of dense_rows: each 0/1 row of ``a`` as a bitset."""
    packed = np.packbits(a, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def pairs_colex(n: int) -> list[tuple[int, int]]:
    """Vertex pairs in graph6 bit order: (0,1), (0,2), (1,2), (0,3), ..."""
    return [(i, j) for j in range(1, n) for i in range(j)]


# ---------------------------------------------------------------------------
# edge-list text format: first line "n m", then m lines "u v"


def from_edge_list_text(text: str) -> Graph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise GraphError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphError(f"edge-list header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphError(f"edge-list header must be 'n m', got {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise GraphError(f"edge-list declares {m} edges but has {len(lines) - 1} edge lines")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"bad edge line {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise GraphError(f"bad edge line {ln!r}") from exc
    return Graph(n, edges)
