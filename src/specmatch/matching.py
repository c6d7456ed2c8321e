"""Matching number, fractional matching number, and half-integral witnesses.

The fractional matching number is computed exactly as half the matching
number of the bipartite double cover.  Both half-integral witnesses are
built from one double-cover matching: the canonical fractional matching is
its pull-back, normalised so that the half-weight support is a disjoint
union of odd cycles, and the dual transversal comes from its minimum vertex
cover.  The public constructors validate what they build; the structure
audit runs the builders on one double-cover matching per graph and
validates each witness once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator

from .graphs import Graph, GraphError, is_connected
from .halfint import HalfIntegral


# ---------------------------------------------------------------------------
# maximum matching (general graphs, blossom contraction)


def _blossom_max_matching(rows: tuple[int, ...], n: int) -> tuple[int, list[int]]:
    match = [-1] * n
    free = (1 << n) - 1
    for v in range(n):  # greedy seed: v takes its lowest free neighbour
        nb = rows[v] & free
        if free >> v & 1 and nb:
            u = (nb & -nb).bit_length() - 1
            match[v] = u
            match[u] = v
            free ^= (1 << u) | (1 << v)

    # Each search keeps, for every contracted base b, the bitmask members[b]
    # of the vertices with base[v] == b; a vertex never contracted stands for
    # itself.  lca and mark_path collect bases in sets, a contraction ORs the
    # marked bases' masks into cur and walks only the absorbed vertices, and
    # a popped vertex skips its own blossom with one mask: a contraction
    # costs the size of the blossom, not n.  The absorbed vertices are queued
    # in ascending index order, as a scan over all n vertices would queue
    # them; another order finds other augmenting paths and so, on some
    # graphs, another matching of the same size.
    p = [-1] * n
    base = list(range(n))

    def lca(a: int, b: int) -> int:
        seen = set()
        while True:
            a = base[a]
            seen.add(a)
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if b in seen:
                return b
            b = p[match[b]]

    def mark_path(v: int, b: int, child: int, blossom: set[int]) -> None:
        while base[v] != b:
            blossom.add(base[v])
            blossom.add(base[match[v]])
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def find_path(root: int) -> bool:
        nonlocal p, base
        p = [-1] * n
        base = list(range(n))
        members: dict[int, int] = {}
        used = [False] * n
        used[root] = True
        q = deque([root])
        while q:
            v = q.popleft()
            nb = rows[v] & ~members.get(base[v], 1 << v)
            while nb:
                to = (nb & -nb).bit_length() - 1
                nb &= nb - 1
                if match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    cur = lca(v, to)
                    blossom: set[int] = set()
                    mark_path(v, cur, to, blossom)
                    mark_path(to, cur, v, blossom)
                    blossom.discard(cur)
                    absorbed = 0
                    for b in blossom:
                        absorbed |= members.pop(b, 1 << b)
                    members[cur] = members.get(cur, 1 << cur) | absorbed
                    nb &= ~members[cur]  # v's base is now cur
                    while absorbed:
                        i = (absorbed & -absorbed).bit_length() - 1
                        absorbed &= absorbed - 1
                        base[i] = cur
                        if not used[i]:
                            used[i] = True
                            q.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        while to != -1:  # augment
                            pv = p[to]
                            ppv = match[pv]
                            match[to] = pv
                            match[pv] = to
                            to = ppv
                        return True
                    used[match[to]] = True
                    q.append(match[to])
        return False

    size = sum(1 for v in range(n) if match[v] != -1) // 2
    for v in range(n):
        if match[v] == -1 and find_path(v):
            size += 1
    return size, match


@dataclass(frozen=True)
class MatchingResult:
    size: int
    edges: tuple[tuple[int, int], ...]


def matching_number(g: Graph) -> MatchingResult:
    """Exact maximum matching size with a witness edge set."""
    size, match = _blossom_max_matching(g.rows, g.n)
    edges = tuple(sorted((v, match[v]) for v in range(g.n) if match[v] > v))
    assert len(edges) == size
    return MatchingResult(size, edges)


# ---------------------------------------------------------------------------
# bipartite double cover and its matching


def bipartite_double_cover(g: Graph) -> Graph:
    """Graph on copies {v, v+n} with edges u~(v+n) and v~(u+n) per edge uv."""
    n = g.n
    rows = [r << n for r in g.rows] + list(g.rows)
    return Graph.from_rows(2 * n, rows)


def _dc_matching(rows: tuple[int, ...], n: int) -> tuple[list[int], list[int]]:
    # Augmenting-path maximum matching on the double cover: left copy u may
    # match any v in N(u) on the right.  Deterministic ascending scans.
    match_l = [-1] * n
    match_r = [-1] * n
    free_r = (1 << n) - 1
    for u in range(n):  # greedy seed: u takes its lowest free right copy
        nb = rows[u] & free_r
        if nb:
            v = (nb & -nb).bit_length() - 1
            match_r[v] = u
            match_l[u] = v
            free_r ^= 1 << v
    for u0 in range(n):
        if match_l[u0] >= 0:
            continue
        seen = 0
        parent: dict[int, int] = {}
        stack = [(u0, rows[u0])]
        found = -1
        while stack:
            u, nb = stack[-1]
            nb &= ~seen
            if not nb:
                stack.pop()
                continue
            v = (nb & -nb).bit_length() - 1
            stack[-1] = (u, nb & (nb - 1))
            seen |= 1 << v
            parent[v] = u
            w = match_r[v]
            if w < 0:
                found = v
                break
            stack.append((w, rows[w]))
        if found >= 0:
            v = found
            while True:
                u = parent[v]
                nxt = match_l[u]
                match_r[v] = u
                match_l[u] = v
                if nxt < 0:
                    break
                v = nxt
    return match_l, match_r


def _dc_matching_size(rows: tuple[int, ...], n: int) -> int:
    return n - _dc_matching(rows, n)[0].count(-1)


def fractional_matching_number(g: Graph) -> HalfIntegral:
    """Exact fractional matching number, half the double cover's matching number."""
    return HalfIntegral(_dc_matching_size(g.rows, g.n))


def has_fractional_perfect_matching(g: Graph) -> bool:
    return fractional_matching_number(g).doubled == g.n


# ---------------------------------------------------------------------------
# fractional matching witnesses


@dataclass(frozen=True)
class FractionalMatching:
    """Half-integral edge weights, stored doubled; only nonzero entries kept."""

    n: int
    doubled_weights: tuple[tuple[tuple[int, int], int], ...]
    total: HalfIntegral

    def vertex_load_doubled(self) -> list[int]:
        load = [0] * self.n
        for (u, v), w in self.doubled_weights:
            load[u] += w
            load[v] += w
        return load

    def validate(self, g: Graph) -> None:
        total = 0
        seen = set()
        for (u, v), w in self.doubled_weights:
            if not (0 <= u < v < g.n):
                raise GraphError(f"weighted pair ({u},{v}) out of range")
            if (u, v) in seen:
                raise GraphError(f"duplicate weighted edge ({u},{v})")
            seen.add((u, v))
            if not g.has_edge(u, v):
                raise GraphError(f"weight on non-edge ({u},{v})")
            if w not in (1, 2):
                raise GraphError(f"doubled weight must be 1 or 2, got {w}")
            total += w
        for v, load in enumerate(self.vertex_load_doubled()):
            if load > 2:
                raise GraphError(f"vertex {v} is overloaded: incident weight {load}/2")
        if total != self.total.doubled:
            raise GraphError("stored total does not match the weights")

    def half_support_adjacency(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {}
        for (u, v), w in self.doubled_weights:
            if w == 1:
                adj.setdefault(u, []).append(v)
                adj.setdefault(v, []).append(u)
        return adj

    def half_cycles(self) -> list[tuple[int, ...]]:
        """The half-weight support as odd cycles, in ascending lowest-vertex order.

        Each cycle is walked from its lowest vertex towards its smaller
        neighbour.  Raises GraphError unless the support is a disjoint union
        of odd cycles, the shape of a canonical witness.
        """
        cycles: list[tuple[int, ...]] = []
        for walk, closed in _half_walks(self.half_support_adjacency()):
            if not closed:
                raise GraphError(_NOT_CYCLES)
            if len(walk) % 2 == 0:
                raise GraphError("non-canonical matching: even cycle in the half-weight support")
            cycles.append(tuple(walk))
        return cycles

    def to_text(self) -> str:
        names = {1: "1/2", 2: "1"}
        lines = [f"edge {u} {v} {names[w]}" for (u, v), w in sorted(self.doubled_weights)]
        return "\n".join(lines) + ("\n" if lines else "")


_NOT_CYCLES = "non-canonical matching: half-weight support is not a union of cycles"


def _half_walks(adj: dict[int, list[int]]) -> Iterator[tuple[list[int], bool]]:
    """Walk each component of a half-weight support: (vertices, closed).

    Components come in ascending lowest-vertex order.  A cycle is walked
    from its lowest vertex towards its smaller neighbour, a path from its
    lower endpoint.  Every step checks the vertex it reaches, and a vertex
    with more than two half-edges raises GraphError, so the walk ends on
    any input.
    """
    def walk(start: int) -> tuple[list[int], bool]:
        out = [start]
        prev, cur = -1, start
        while True:
            if len(adj[cur]) > 2:
                raise GraphError(_NOT_CYCLES)
            nxt = min((x for x in adj[cur] if x != prev), default=-1)
            if nxt < 0 or nxt == start:
                return out, nxt == start
            out.append(nxt)
            prev, cur = cur, nxt

    done: set[int] = set()
    for v0 in sorted(adj):
        if v0 in done:
            continue
        vertices, closed = walk(v0)
        if not closed:  # v0 may lie inside the path: walk it again from the end reached
            vertices = walk(vertices[-1])[0]
            if vertices[-1] < vertices[0]:
                vertices.reverse()
        done.update(vertices)
        yield vertices, closed


def _fractional_matching_from(g: Graph, match_l: list[int]) -> FractionalMatching:
    """The canonical fractional matching of a maximum double-cover matching.

    Each edge gets half the number of its matched lifted copies.  Then every
    even cycle and every path of half-edges is reweighted 1, 0, 1, ... from
    where ``_half_walks`` starts it, so only odd cycles keep weight 1/2.
    The result is not validated.
    """
    dw: dict[tuple[int, int], int] = {}
    for u, v in enumerate(match_l):
        if v >= 0:
            key = (u, v) if u < v else (v, u)
            dw[key] = dw.get(key, 0) + 1
    pulled = FractionalMatching(g.n, tuple(dw.items()), HalfIntegral(sum(dw.values())))
    for vertices, closed in _half_walks(pulled.half_support_adjacency()):
        if closed and len(vertices) % 2:
            continue  # odd cycles are already canonical
        steps = list(zip(vertices, vertices[1:] + vertices[:1] if closed else vertices[1:]))
        # an optimal matching never leaves an odd half-path (it could be improved)
        assert len(steps) % 2 == 0, "half-weight support had an augmentable odd path"
        for i, (u, v) in enumerate(steps):
            key = (u, v) if u < v else (v, u)
            if i % 2:
                del dw[key]
            else:
                dw[key] = 2
    return FractionalMatching(g.n, tuple(sorted(dw.items())), pulled.total)


def optimal_fractional_matching(g: Graph) -> FractionalMatching:
    """Maximum fractional matching in canonical half-integral form.

    Pulls back the double cover matching (each edge gets half the number of
    matched lifted copies), then normalises the half-weight support until it
    is a disjoint union of odd cycles.
    """
    fm = _fractional_matching_from(g, _dc_matching(g.rows, g.n)[0])
    fm.validate(g)
    return fm


# ---------------------------------------------------------------------------
# fractional transversals (dual side)


@dataclass(frozen=True)
class Transversal:
    """Half-integral vertex weights, stored doubled, with the W/R/C split."""

    n: int
    doubled_weights: tuple[int, ...]
    total: HalfIntegral

    def _class_masks(self) -> tuple[int, int, int]:
        """Bitmasks of the weight classes W (weight 1), R (0) and C (1/2)."""
        masks = [0, 0, 0]  # indexed by doubled weight: R, C, W
        for v, w in enumerate(self.doubled_weights):
            masks[w] |= 1 << v
        return masks[2], masks[0], masks[1]

    @property
    def W(self) -> frozenset[int]:
        return frozenset(v for v, w in enumerate(self.doubled_weights) if w == 2)

    @property
    def R(self) -> frozenset[int]:
        return frozenset(v for v, w in enumerate(self.doubled_weights) if w == 0)

    @property
    def C(self) -> frozenset[int]:
        return frozenset(v for v, w in enumerate(self.doubled_weights) if w == 1)

    def validate(self, g: Graph) -> None:
        dw = self.doubled_weights
        if len(dw) != g.n:
            raise GraphError("transversal length does not match the graph")
        for v, w in enumerate(dw):
            if w not in (0, 1, 2):
                raise GraphError(f"vertex {v} has doubled weight {w}, expected 0, 1 or 2")
        # an edge is uncovered exactly when it joins R to R or to C; the
        # per-edge scan runs only to name the first such edge
        _, r_mask, c_mask = self._class_masks()
        if any(g.rows[v] & (r_mask | c_mask) for v, w in enumerate(dw) if w == 0):
            u, v = next((u, v) for u, v in g.edges() if dw[u] + dw[v] < 2)
            raise GraphError(f"edge ({u},{v}) not covered: weights sum below 1")
        if sum(dw) != self.total.doubled:
            raise GraphError("stored total does not match the weights")

    def to_text(self) -> str:
        names = {0: "0", 1: "1/2", 2: "1"}
        lines = [f"vertex {v} {names[w]}" for v, w in enumerate(self.doubled_weights)]
        return "\n".join(lines) + ("\n" if lines else "")


def _transversal_from(g: Graph, match_l: list[int], match_r: list[int]) -> Transversal:
    """The transversal of a maximum double-cover matching's vertex cover.

    The cover comes from the matching by alternating reachability, so the
    construction is deterministic; g(v) is half the number of covered copies
    of v.  The result is not validated.
    """
    n = g.n
    rows = g.rows
    visited_l = [False] * n
    visited_r = [False] * n
    queue = deque(u for u in range(n) if match_l[u] < 0)
    for u in queue:
        visited_l[u] = True
    while queue:
        u = queue.popleft()
        nb = rows[u]
        while nb:
            v = (nb & -nb).bit_length() - 1
            nb &= nb - 1
            if v == match_l[u] or visited_r[v]:
                continue
            visited_r[v] = True
            w = match_r[v]
            if w >= 0 and not visited_l[w]:
                visited_l[w] = True
                queue.append(w)
    dwv = tuple((0 if visited_l[v] else 1) + (1 if visited_r[v] else 0) for v in range(n))
    return Transversal(n, dwv, HalfIntegral(sum(dwv)))


def fractional_transversal(g: Graph) -> Transversal:
    """Optimal half-integral transversal from the double cover's vertex cover."""
    t = _transversal_from(g, *_dc_matching(g.rows, g.n))
    t.validate(g)
    return t


@dataclass(frozen=True)
class WrcReport:
    s: int
    t: int
    c: int
    r_independent: bool
    no_rc_edges: bool
    connected_rule_ok: bool
    is_optimal: bool
    eq1_holds: bool | None
    r_geq_w: bool | None


def wrc_decomposition(g: Graph, t: Transversal, beta_star_doubled: int | None = None) -> WrcReport:
    """Check the structural properties of a transversal's weight classes.

    (a) the zero-weight class is independent, (b) it has no edges into the
    half-weight class, (c) on a connected graph the full- and zero-weight
    classes are empty or non-empty together (vacuous on a single vertex),
    and, when the transversal is optimal, total = (n - (|R|-|W|))/2 with
    |R| >= |W|.
    """
    t.validate(g)  # its coverage rule is (a) and (b): no R-row meets R or C
    w_mask, r_mask, c_mask = t._class_masks()
    s = w_mask.bit_count()
    tt = r_mask.bit_count()
    if g.n <= 1 or not is_connected(g):
        connected_rule_ok = True
    else:
        connected_rule_ok = (s == 0) == (tt == 0)
    if beta_star_doubled is None:
        beta_star_doubled = _dc_matching_size(g.rows, g.n)
    optimal = t.total.doubled == beta_star_doubled
    eq1 = None
    r_geq_w = None
    if optimal:
        eq1 = t.total.doubled == g.n - (tt - s)
        r_geq_w = tt >= s
    return WrcReport(s, tt, c_mask.bit_count(), True, True, connected_rule_ok, optimal, eq1, r_geq_w)


# ---------------------------------------------------------------------------
# fractional perfect matching partitions


@dataclass(frozen=True)
class FpmPart:
    kind: str  # "K2" or "ODD_CYCLE"
    vertices: tuple[int, ...]


@dataclass(frozen=True)
class FpmPartition:
    parts: tuple[FpmPart, ...]

    def to_text(self) -> str:
        lines = []
        for part in self.parts:
            if part.kind == "K2":
                lines.append(f"part K2 {part.vertices[0]} {part.vertices[1]}")
            else:
                lines.append("part CYCLE " + " ".join(str(v) for v in part.vertices))
        return "\n".join(lines) + ("\n" if lines else "")


def fpm_partition(
    g: Graph, m: FractionalMatching, *, cycles: list[tuple[int, ...]] | None = None
) -> FpmPartition:
    """Split a canonical fractional perfect matching into K2 and odd-cycle parts.

    ``cycles``, when given, is ``m.half_cycles()`` as the caller already
    walked it; otherwise the half-weight support is walked here.
    """
    m.validate(g)
    if m.total.doubled < g.n:
        raise GraphError(f"matching is not perfect: total {m.total} < n/2 = {g.n}/2")
    parts: list[FpmPart] = []
    covered = 0
    for (u, v), w in m.doubled_weights:
        if w == 2:
            parts.append(FpmPart("K2", (u, v)))
            covered |= (1 << u) | (1 << v)
    for cycle in m.half_cycles() if cycles is None else cycles:
        for x in cycle:
            covered |= 1 << x
        parts.append(FpmPart("ODD_CYCLE", cycle))
    if covered != (1 << g.n) - 1:
        raise GraphError("matching does not saturate every vertex")
    return FpmPartition(tuple(sorted(parts, key=lambda p: p.vertices)))
