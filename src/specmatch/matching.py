"""Matching number, fractional matching number, and half-integral witnesses.

The fractional matching number is computed exactly as half the matching
number of the bipartite double cover, found by Hopcroft-Karp phases.  Both
half-integral witnesses are built from that one double-cover matching by a
bitmask core: the canonical fractional matching is its pull-back as
partner and half-support rows, normalised so that the half-weight support
is a disjoint union of odd cycles, and the dual transversal is the W/R/C
masks of its minimum vertex cover, which the matcher reads off its last,
failing search (the alternating reachability from the unmatched left
copies).  The size and the W/R/C cover are the same for every maximum
matching (Dulmage-Mendelsohn); only the canonical matching depends on
which one is taken.  Each witness property has one rule on these masks,
and the rules of a fractional perfect matching run in one order
(``_partition``).  The public constructors wrap the core and validate what
they build with those rules.  The structure audit runs the core with no
witness objects and judges its witnesses by column: ``_witness_faults`` is
the rules' column form, and ``_name_witness_faults``, which runs the rules
themselves, names the faults of the graphs it flags.  Each matcher is a
greedy seed and a search; each seed, the double-cover search
(``_dc_search_columns``), the builder's pull-back (``_pull_back_columns``)
and the half-weight walk (``_odd_cycle_columns``) have a column form
beside the scalar one.  So the audit runs no per-graph search and builds a
graph only where its pulled-back half rows are not already odd cycles, and
the cross-check runs the blossom search only where its seed leaves work;
the public queries run the scalar forms.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .graphs import _LABELS, Graph, GraphError, dense_rows
from .halfint import HalfIntegral


# ---------------------------------------------------------------------------
# maximum matching (general graphs, blossom contraction)


def _blossom_seed(rows: tuple[int, ...], n: int) -> tuple[list[int], int]:
    match = [-1] * n
    free = (1 << n) - 1
    for v in range(n):  # greedy seed: v takes its lowest free neighbour
        nb = rows[v] & free
        if free >> v & 1 and nb:
            u = (nb & -nb).bit_length() - 1
            match[v] = u
            match[u] = v
            free ^= (1 << u) | (1 << v)
    return match, free


def _blossom_seed_columns(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_blossom_seed`` of each graph of a (graphs, n) uint16 array of rows:
    the match lists, the free masks and the column of the graphs on which
    ``_blossom_search`` searches at all (its skip rule); elsewhere it
    returns the seed."""
    count, n = rows.shape
    match = np.full((count, n), -1, dtype=np.int8)
    free = np.full(count, (1 << n) - 1, dtype=np.uint16)
    for v in range(n):
        nb = np.where(free >> v & 1, rows[:, v] & free, 0).astype(np.uint16)
        low = nb & -nb
        took = np.flatnonzero(nb)
        u = np.bitwise_count(low[took] - 1).astype(np.intp)  # the index of the lowest bit
        match[took, v] = u
        match[took, u] = v
        free ^= np.where(nb != 0, low | np.uint16(1 << v), 0).astype(np.uint16)
    nonisolated = np.bitwise_or.reduce(np.where(rows != 0, np.uint16(1) << np.arange(n, dtype=np.uint16), 0), axis=1)
    first = free & nonisolated
    first &= -first  # the lowest free vertex with a neighbour, or 0
    return match, free, free & ~(first | first - 1) != 0  # a free vertex above it


def _blossom_search(rows: tuple[int, ...], n: int, match: list[int], free: int) -> tuple[int, list[int]]:
    # Edmonds' lemma: a free vertex with no augmenting path keeps none later,
    # so each is searched once, in ascending order.  A path from v ends at a
    # free vertex above v: with no neighbour or no such vertex, v is skipped.
    size = (n - free.bit_count()) // 2
    while free:
        v = (free & -free).bit_length() - 1
        free ^= 1 << v
        if rows[v] and free:
            to = _augment(rows, n, match, v)
            if to >= 0:
                free &= ~(1 << to)
                size += 1
    return size, match


def _blossom_max_matching(rows: tuple[int, ...], n: int) -> tuple[int, list[int]]:
    return _blossom_search(rows, n, *_blossom_seed(rows, n))


def _augment(rows: tuple[int, ...], n: int, match: list[int], root: int) -> int:
    """One augmenting-path search from the free vertex root: augments match
    along the first path found and returns its other end, or -1 if there is
    none.  The lowest common base and the path marking are inline, with no
    call or closure per search: a sweep runs it for about half its graphs.

    The search keeps, for every contracted base b, the bitmask members[b] of
    the vertices with base[v] == b; a vertex never contracted stands for
    itself.  The base walks collect bases in sets, a contraction ORs the
    marked bases' masks into cur and walks only the absorbed vertices, and a
    popped vertex skips its own blossom with one mask: a contraction costs
    the size of the blossom, not n.  The absorbed vertices are queued in
    ascending index order, as a scan over all n vertices would queue them;
    another order finds other augmenting paths and so, on some graphs,
    another matching of the same size.
    """
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
                # cur: the lowest common base of v and to in the search tree
                seen = set()
                a = v
                while True:
                    a = base[a]
                    seen.add(a)
                    if match[a] == -1:
                        break
                    a = p[match[a]]
                cur = base[to]
                while cur not in seen:
                    cur = base[p[match[cur]]]
                # mark the paths from v and from to up to cur
                blossom: set[int] = set()
                for x, child in ((v, to), (to, v)):
                    while base[x] != cur:
                        blossom.add(base[x])
                        blossom.add(base[match[x]])
                        p[x] = child
                        child = match[x]
                        x = p[child]
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
                    end = to
                    while to != -1:  # augment
                        pv = p[to]
                        ppv = match[pv]
                        match[to] = pv
                        match[pv] = to
                        to = ppv
                    return end
                used[match[to]] = True
                q.append(match[to])
    return -1


@dataclass(frozen=True)
class MatchingResult:
    size: int
    edges: tuple[tuple[int, int], ...]


def matching_number(g: Graph) -> MatchingResult:
    """Exact maximum matching size with a witness edge set."""
    size, match = _blossom_max_matching(g.rows, g.n)
    edges = tuple((_LABELS[v], _LABELS[w]) for v, w in enumerate(match) if w > v)
    if len(edges) != size:
        raise GraphError(f"blossom matching lists {len(edges)} edges for size {size}")
    return MatchingResult(size, edges)


# ---------------------------------------------------------------------------
# bipartite double cover and its matching


def _dc_seed(rows: tuple[int, ...], n: int) -> tuple[list[int], list[int], int, int, int]:
    # the greedy seed of _dc_search: each left copy u takes its lowest free right copy
    match_l = [-1] * n
    match_r = [-1] * n
    free_l, free_r, isolated = 0, (1 << n) - 1, 0
    for u in range(n):
        nb = rows[u] & free_r
        if nb:
            v = (nb & -nb).bit_length() - 1
            match_r[v] = u
            match_l[u] = v
            free_r ^= 1 << v
        elif rows[u]:
            free_l |= 1 << u
        else:
            free_r ^= 1 << u
            isolated |= 1 << u
    return match_l, match_r, free_l, free_r, isolated


def _dc_seed_columns(rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """``_dc_seed`` of each graph of a (graphs, n) uint16 array of rows, the
    seed of ``_dc_search_columns``."""
    count, n = rows.shape
    match_l, match_r = np.full((2, count, n), -1, dtype=np.int8)
    lone = rows == 0
    bits = np.uint16(1) << np.arange(n, dtype=np.uint16)
    isolated = np.bitwise_or.reduce(np.where(lone, bits, 0), axis=1).astype(np.uint16)
    free_l = np.zeros(count, dtype=np.uint16)
    free_r = ((1 << n) - 1) & ~isolated  # no earlier left copy takes an isolated right copy
    for u in range(n):
        nb = rows[:, u] & free_r
        low = nb & -nb
        took = np.flatnonzero(nb)
        v = np.bitwise_count(low[took] - 1).astype(np.intp)  # the index of the lowest bit
        match_l[took, u] = v
        match_r[took, v] = u
        free_r ^= low
        free_l |= np.where((nb == 0) & ~lone[:, u], bits[u], 0).astype(np.uint16)
    return match_l, match_r, free_l, free_r, isolated


def _dc_search(rows: tuple[int, ...], n: int, match_l: list[int], match_r: list[int], free_l: int, free_r: int,
               isolated: int) -> tuple[list[int], int, int, int]:
    # Maximum matching on the double cover by Hopcroft-Karp phases (Hopcroft
    # and Karp, SIAM J. Comput. 2(4), 1973), grown in place from _dc_seed:
    # left copy u may match any v in N(u) on the right.  A path joins a free
    # left copy to a free right copy, both with a neighbour, so only those
    # are kept as free_l and free_r; the rows are symmetric, so the right
    # copy of v has a neighbour iff rows[v] does, and free_l and free_r are
    # always the same size.
    #
    # A phase runs one breadth-first search from all of free_l at once:
    # lefts[k] is the mask of the left copies k steps out (lefts[0] =
    # free_l, lefts[k + 1] the partners of the right copies first reached
    # from lefts[k]), up to the first step that reaches a free right copy.
    # Searches back from each free right copy reached then take a maximal
    # set of vertex-disjoint shortest augmenting paths: from a right copy
    # in step k, to a neighbour in lefts[k], then to its partner.  A left
    # copy leaves its mask once visited, so a phase visits each copy once,
    # and a search back meets a dead end only where an earlier path took a
    # copy.  A phase that reaches no free right copy ends the search.
    #
    # That last search is the alternating reachability from the unmatched
    # left copies (free_l and the isolated vertices): the left copies in
    # lefts and the right copies in seen.  Returns the matching's match_l
    # and the W, R, C masks of the minimum vertex cover it gives: g(v) is
    # half the number of covered copies of v, 1 on W (only the right copy
    # reached), 0 on R (only the left copy) and 1/2 on C.  The cover is the
    # same for every maximum matching (Dulmage-Mendelsohn).
    while True:
        lefts = []
        seen = 0
        front = free_l
        while True:
            lefts.append(front)
            reach = 0
            while front:
                low = front & -front
                reach |= rows[low.bit_length() - 1]
                front ^= low
            reach &= ~seen
            if not reach or reach & free_r:
                break
            seen |= reach
            while reach:
                low = reach & -reach
                front |= 1 << match_r[low.bit_length() - 1]
                reach ^= low
        ends = reach & free_r
        if not ends:
            break
        last = len(lefts) - 1
        while ends and lefts[0]:
            end = ends & -ends
            ends ^= end
            path = [end.bit_length() - 1]  # v_last, u_last, v_last-1, ..., u_0: u_k in lefts[k] takes v_k
            k = last
            while True:
                nb = rows[path[-1]] & lefts[k]
                if not nb:  # a dead end: back one step towards the free copy
                    if k == last:
                        break
                    del path[-2:]
                    k += 1
                    continue
                low = nb & -nb
                lefts[k] ^= low
                u = low.bit_length() - 1
                path.append(u)
                if not k:
                    for i in range(0, len(path), 2):
                        match_r[path[i]] = path[i + 1]
                        match_l[path[i + 1]] = path[i]
                    free_l ^= low
                    free_r ^= end
                    break
                path.append(match_l[u])
                k -= 1
    left = isolated
    for front in lefts:
        left |= front
    return match_l, seen & ~left, left & ~seen, ((1 << n) - 1) & ~(left ^ seen)


def _dc_search_columns(rows: np.ndarray, match_l: np.ndarray, match_r: np.ndarray, free_l: np.ndarray, free_r: np.ndarray,
                       isolated: np.ndarray) -> tuple[np.ndarray, ...]:
    """``_dc_search`` of each graph of a (graphs, n) uint16 array of rows,
    from its column seed (``_dc_seed_columns``), whose columns it updates in
    place: match_l and the W, R and C columns, graph by graph what the
    scalar search returns.  Each phase is the scalar one on every graph
    still searching at once: the breadth-first search a level at a time,
    lefts an (n + 1, graphs) array; then the searches back, a step at a
    time, each graph with its own path stack, length and k, taking its
    free right copies in ascending order and the lowest bit at each step.
    A graph leaves in the phase that reaches no free right copy, with the
    cover read from that phase."""
    count, n = rows.shape
    shift = np.arange(n, dtype=np.uint16)
    bits = np.append(np.uint16(1) << shift, np.uint16(0))  # bits[-1]: no partner
    w, r, c = np.zeros((3, count), dtype=np.uint16)
    todo = np.arange(count)
    while len(todo):
        nbrs, fl, fr = rows[todo], free_l[todo], free_r[todo]
        lefts = np.zeros((n + 1, len(todo)), dtype=np.uint16)
        seen, ends = np.zeros((2, len(todo)), dtype=np.uint16)
        last = np.zeros(len(todo), dtype=np.intp)
        live, front = np.arange(len(todo)), fl
        for k in range(n + 1):  # each level but the last adds a right copy to seen
            lefts[k, live] = front
            reach = np.bitwise_or.reduce(np.where(front[:, None] >> shift & 1, nbrs[live], 0), axis=1) & ~seen[live]
            stop = (reach == 0) | (reach & fr[live] != 0)
            last[live[stop]], ends[live[stop]] = k, reach[stop] & fr[live[stop]]
            live, reach = live[~stop], reach[~stop]
            if not len(live):
                break
            seen[live] |= reach
            front = np.bitwise_or.reduce(np.where(reach[:, None] >> shift & 1, bits[match_r[todo[live]]], 0), axis=1)
        done = ends == 0
        left = isolated[todo[done]] | np.bitwise_or.reduce(lefts[:, done], axis=0)
        w[todo[done]], r[todo[done]], c[todo[done]] = seen[done] & ~left, left & ~seen[done], ((1 << n) - 1) & ~(left ^ seen[done])
        todo = todo[~done]
        nbrs, fl, fr, lefts, ends, last = nbrs[~done], fl[~done], fr[~done], lefts[:, ~done], ends[~done], last[~done]
        ml, mr = match_l[todo], match_r[todo]
        path = np.zeros((len(todo), 2 * n + 2), dtype=np.intp)  # as in _dc_search: v_last, u_last, ..., u_0
        depth, k = np.zeros((2, len(todo)), dtype=np.intp)
        end = np.zeros(len(todo), dtype=np.uint16)
        searching = np.zeros(len(todo), dtype=bool)
        while True:
            g = np.flatnonzero(~searching & (ends != 0) & (lefts[0] != 0))  # the next free right copy
            end[g] = ends[g] & -ends[g]
            ends[g] ^= end[g]
            path[g, 0], depth[g], k[g], searching[g] = np.bitwise_count(end[g] - 1), 1, last[g], True
            g = np.flatnonzero(searching)
            if not len(g):
                break
            nb = nbrs[g, path[g, depth[g] - 1]] & lefts[k[g], g]
            stuck = g[nb == 0]  # a dead end: back one step towards the free copy
            searching[stuck[k[stuck] == last[stuck]]] = False
            stuck = stuck[k[stuck] != last[stuck]]
            depth[stuck] -= 2
            k[stuck] += 1
            g, nb = g[nb != 0], nb[nb != 0]
            low = nb & -nb
            lefts[k[g], g] ^= low
            u = np.bitwise_count(low - 1).astype(np.intp)
            path[g, depth[g]] = u
            depth[g] += 1
            found = k[g] == 0
            a = g[found]  # augment along each path found
            fl[a] ^= low[found]
            fr[a] ^= end[a]
            searching[a] = False
            i, j = np.nonzero(np.arange(n + 1) < depth[a, None] // 2)
            mr[a[i], path[a[i], 2 * j]] = path[a[i], 2 * j + 1]
            ml[a[i], path[a[i], 2 * j + 1]] = path[a[i], 2 * j]
            g, u = g[~found], u[~found]
            path[g, depth[g]] = ml[g, u]
            depth[g] += 1
            k[g] -= 1
        match_l[todo], match_r[todo], free_l[todo], free_r[todo] = ml, mr, fl, fr
    return match_l, w, r, c


def _dc_matching(rows: tuple[int, ...], n: int) -> tuple[list[int], int, int, int]:
    return _dc_search(rows, n, *_dc_seed(rows, n))


def _dc_matching_size(rows: tuple[int, ...], n: int) -> int:
    return n - _dc_matching(rows, n)[0].count(-1)


def fractional_matching_number(g: Graph) -> HalfIntegral:
    """Exact fractional matching number, half the double cover's matching number."""
    return HalfIntegral(_dc_matching_size(g.rows, g.n))


# ---------------------------------------------------------------------------
# the bitmask witness core
#
# partner[v] has a bit for each weight-1 edge at v, half[v] one for each
# weight-1/2 edge; a transversal is its W (weight 1), R (0) and C (1/2)
# masks.  Each rule checks one property and raises GraphError with its own
# message.

_NOT_CYCLES = "non-canonical matching: half-weight support is not a union of cycles"


def _walk(half: list[int], start: int, cur: int) -> tuple[list[int], bool]:
    # from start through its neighbour cur onwards, until the support ends
    # (False) or comes back to start (True); every vertex reached is checked.
    # A walk on symmetric rows reaches each vertex once, so one that takes
    # more than len(half) steps has entered a loop that misses start.
    out = [start]
    prev = start
    for _ in range(len(half)):
        if cur == start:
            return out, True
        row = half[cur]
        if row.bit_count() > 2:
            raise GraphError(_NOT_CYCLES)
        out.append(cur)
        row &= ~(1 << prev)
        if not row:
            return out, False
        prev, cur = cur, (row & -row).bit_length() - 1
    raise GraphError(_NOT_CYCLES)


def _walks(half: list[int]) -> Iterator[tuple[list[int], bool]]:
    """Walk each component of a half-weight support: (vertices, closed).

    Components come in ascending lowest-vertex order.  A cycle is walked
    from its lowest vertex towards its smaller neighbour, a path from its
    lower endpoint.  A vertex with more than two half-edges raises
    GraphError when the walk reaches it, and so does a walk longer than
    len(half) steps, which only rows that are not symmetric give: the walk
    ends on any rows.  The caller may rewrite the rows of a component once
    it has been yielded.
    """
    todo = 0
    for v, row in enumerate(half):
        if row:
            todo |= 1 << v
    while todo:
        v0 = (todo & -todo).bit_length() - 1
        row = half[v0]
        if row.bit_count() > 2:
            raise GraphError(_NOT_CYCLES)
        low = row & -row
        vertices, closed = _walk(half, v0, low.bit_length() - 1)
        if not closed and row != low:  # v0 lies inside a path: add its other side
            vertices = vertices[::-1] + _walk(half, v0, (row ^ low).bit_length() - 1)[0][1:]
            if vertices[-1] < vertices[0]:
                vertices.reverse()
        for x in vertices:
            todo &= ~(1 << x)
        yield vertices, closed


def _fractional_matching_from(rows: tuple[int, ...], match_l: list[int]) -> tuple[list[int], list[int], int]:
    """The canonical fractional matching of a maximum double-cover matching.

    Returns the partner rows, the half-support rows and the doubled total.
    Each edge gets half the number of its matched lifted copies.  Then every
    even cycle and every path of half-edges is reweighted 1, 0, 1, ... from
    where ``_walks`` starts it, so only odd cycles keep weight 1/2.  The
    result is not checked.
    """
    n = len(rows)
    partner = [0] * n
    half = [0] * n
    total = 0
    for u, v in enumerate(match_l):
        if v >= 0:
            total += 1
            if match_l[v] == u:
                partner[u] = 1 << v
            else:
                half[u] |= 1 << v
                half[v] |= 1 << u
    if not any(half):
        return partner, half, total
    for vertices, closed in _walks(half):
        if closed and len(vertices) % 2:
            continue  # odd cycles are already canonical
        # an optimal matching never leaves an odd half-path (it could be improved)
        if not closed and not len(vertices) % 2:
            raise GraphError("half-weight support had an augmentable odd path")
        for x in vertices:
            half[x] = 0
        for a, b in zip(vertices[::2], vertices[1::2]):
            partner[a] = 1 << b
            partner[b] = 1 << a
    return partner, half, total


def _pull_back_columns(match_l: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first loop of ``_fractional_matching_from`` on each row of a
    (graphs, n) array of match_l lists: partner rows, half rows and doubled
    totals, canonical where the half rows are 0."""
    n = match_l.shape[1]
    matched = match_l >= 0
    v = np.where(matched, match_l, 0)
    to_v = np.where(matched, np.uint16(1) << v.astype(np.uint16), 0).astype(np.uint16)
    mutual = matched & (np.take_along_axis(match_l, v, axis=1) == np.arange(n))
    partner = np.where(mutual, to_v, 0).astype(np.uint16)
    half = to_v ^ partner
    g, u = np.nonzero(matched & ~mutual)  # the half-edge u-v seen from v
    np.bitwise_or.at(half, (g, v[g, u]), np.uint16(1) << u.astype(np.uint16))
    return partner, half, np.count_nonzero(matched, axis=1)


def _check_matching(rows: tuple[int, ...], partner: list[int], half: list[int], total: int) -> None:
    """Feasibility: weights only on edges, at most 1 at each vertex, and the
    doubled ``total`` equal to the weights' sum."""
    off = doubled = most = 0
    for row, p, h in zip(rows, partner, half):
        weighted = p | h
        off |= weighted ^ (weighted & row)
        load = 2 * p.bit_count() + h.bit_count()
        doubled += load
        if load > most:
            most = load
    if off:  # rows are symmetric: the first vertex with a weight off its row is the lower end
        u, off = next((u, (p | h) & ~row) for u, (row, p, h) in enumerate(zip(rows, partner, half)) if (p | h) & ~row)
        raise GraphError(f"weight on non-edge ({u},{(off & -off).bit_length() - 1})")
    if most > 2:
        loads = (2 * p.bit_count() + h.bit_count() for p, h in zip(partner, half))
        v, load = next((v, load) for v, load in enumerate(loads) if load > 2)
        raise GraphError(f"vertex {v} is overloaded: incident weight {load}/2")
    if doubled != 2 * total:
        raise GraphError("stored total does not match the weights")


def _odd_cycles(half: list[int]) -> list[tuple[int, ...]]:
    """The half-weight support as odd cycles, in ascending lowest-vertex order.

    Each cycle is walked from its lowest vertex towards its smaller
    neighbour.  Raises GraphError unless the support is a disjoint union of
    odd cycles, the shape of a canonical witness: the rows are symmetric
    with no loop, and each vertex has 0 or 2 half-edges, in a component of
    odd size (``_odd_cycle_columns``).
    """
    cycles: list[tuple[int, ...]] = []
    if not any(half):
        return cycles
    for vertices, closed in _walks(half):
        if not closed:
            raise GraphError(_NOT_CYCLES)
        if len(vertices) % 2 == 0:
            raise GraphError("non-canonical matching: even cycle in the half-weight support")
        # rows that are not symmetric can close a walk too: the vertices must
        # be distinct and each row their two neighbours on the cycle
        ring = zip(vertices, vertices[-1:] + vertices[:-1], vertices[1:] + vertices[:1])
        if len(vertices) < 3 or len(set(vertices)) < len(vertices) or any(half[x] != 1 << a | 1 << b for x, a, b in ring):
            raise GraphError(_NOT_CYCLES)
        cycles.append(tuple(vertices))
    return cycles


def _odd_cycle_columns(half: np.ndarray) -> np.ndarray:
    """``_odd_cycles`` on each row of a (graphs, n) uint16 array of
    half-support rows: True where it returns, that is where the rows are
    symmetric with no loop, every half-degree is 0 or 2 and every component
    has odd size.  A component is then a cycle, and the reach of each of its
    vertices grows by one step per round, through its two neighbours."""
    ok = np.ones(len(half), dtype=bool)
    todo = np.flatnonzero(half.any(axis=1))
    half = half[todo]
    at = np.arange(half.shape[1], dtype=np.uint16)
    low = half & -half
    high = half ^ low
    degree = np.bitwise_count(half)
    # each vertex's two neighbours, or itself where it has none
    near = np.where(low != 0, np.bitwise_count(low - 1), at).astype(np.intp)
    far = np.where(high != 0, np.bitwise_count(high - 1), at).astype(np.intp)
    mutual = (np.take_along_axis(half, near, axis=1) & np.take_along_axis(half, far, axis=1)) >> at & 1 == 1
    good = (degree == 0) | (degree == 2) & mutual & (half >> at & 1 == 0)
    reach = half | np.uint16(1) << at
    for _ in range(len(at) // 2 - 1):  # a cycle of at most n vertices has radius at most n/2
        reach |= np.take_along_axis(reach, near, axis=1) | np.take_along_axis(reach, far, axis=1)
    ok[todo] = (good & ((np.bitwise_count(reach) % 2 == 1) | (degree == 0))).all(axis=1)
    return ok


def _check_perfect(n: int, total: int, partner: list[int], support: int) -> None:
    """Perfect-matching coverage: doubled total n, and every vertex in a
    weight-1 edge or in ``support``, the vertices of the half-weight cycles."""
    if total < n:
        raise GraphError(f"matching is not perfect: total {HalfIntegral(total)} < n/2 = {n}/2")
    for p in partner:
        support |= p
    if support != (1 << n) - 1:
        raise GraphError("matching does not saturate every vertex")


def _partition(rows: tuple[int, ...], partner: list[int], half: list[int], total: int) -> list[tuple[int, ...]]:
    """The half-weight cycles of a fractional perfect matching.  Raises
    GraphError from the first rule that fails: feasibility
    (``_check_matching``), coverage (``_check_perfect``), then the walk
    (``_odd_cycles``)."""
    _check_matching(rows, partner, half, total)
    support = 0  # the vertices of the half-weight cycles
    for row in half:
        support |= row
    _check_perfect(len(rows), total, partner, support)
    return _odd_cycles(half)


def _check_cover(rows: tuple[int, ...], r: int, c: int) -> None:
    """Transversal coverage: no edge joins R to R or to C (weights sum below 1)."""
    rc = r | c
    todo = r
    while todo:  # every uncovered edge has an end in R
        low = todo & -todo
        if rows[low.bit_length() - 1] & rc:
            break
        todo ^= low
    else:
        return
    for u, row in enumerate(rows):  # name the first uncovered edge (u, v), u < v
        bad = (row & (rc if r >> u & 1 else r if c >> u & 1 else 0)) >> (u + 1)
        if bad:
            raise GraphError(f"edge ({u},{u + (bad & -bad).bit_length()}) not covered: weights sum below 1")


def _witness_faults(n: int, connected: np.ndarray, bsd: np.ndarray, rows: np.ndarray, partner: np.ndarray, half: np.ndarray,
                    total: np.ndarray, w: np.ndarray, r: np.ndarray, c: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """The rules above in column form: True for each graph whose witnesses
    break one, of a batch given as (graphs, n) neighbour, partner and
    half-support rows and columns of doubled totals, W/R/C masks, 2*beta_star
    (at most n), connectivity and the half-weight walk of the half rows
    (``_odd_cycle_columns``).  A graph is True exactly when one of these
    fails: duality (both totals equal ``bsd``), ``_check_matching``,
    ``_check_perfect`` where ``bsd`` = n, ``_check_cover``, the walk and, on
    connected graphs, the W/R/C rules of ``_name_witness_faults``."""
    load = 2 * np.bitwise_count(partner).astype(np.int64) + np.bitwise_count(half)
    weighted = partner | half
    s, t = np.bitwise_count(w).astype(np.int64), np.bitwise_count(r).astype(np.int64)
    t_total = 2 * s + np.bitwise_count(c)
    faults = (total != bsd) | (t_total != bsd) | ~odd
    # _check_matching: a weight off the row, a load above 2, the doubled total
    faults |= (weighted & ~rows).any(axis=1) | (load > 2).any(axis=1) | (load.sum(axis=1) != 2 * total)
    # _check_perfect: every vertex in a weighted edge (a total below n breaks duality)
    faults |= (bsd == n) & (np.bitwise_or.reduce(weighted, axis=1) != (1 << n) - 1)
    # _check_cover: a vertex of R with a neighbour in R or C
    in_r = (r[:, None] >> np.arange(n)) & 1 == 1
    faults |= (in_r & (rows & (r | c)[:, None] != 0)).any(axis=1)
    # the W/R/C rules where duality holds: with total = n - (|R|-|W|) = bsd
    # <= n, |R| >= |W| follows
    faults |= connected & ((n > 1) & ((s == 0) != (t == 0)) | (t_total != n - (t - s)))
    return faults


def _name_witness_faults(n: int, connected: bool, bsd: int, rows: tuple[int, ...], partner: list[int], half: list[int],
                         total: int, w: int, r: int, c: int) -> list[str]:
    """The faults of one graph's witnesses, given as ``_witness_faults``
    takes a batch, each named by the rule that finds it.  A transversal is
    optimal when its total is ``bsd``; on a connected graph W and R are
    empty or non-empty together (vacuous on a single vertex), and an
    optimal transversal has total = (n - (|R|-|W|))/2 and |R| >= |W|."""
    s, t = w.bit_count(), r.bit_count()
    t_total = 2 * s + c.bit_count()
    faults: list[str] = []
    if total != bsd or t_total != bsd:
        faults.append(f"primal {HalfIntegral(total)} / dual {HalfIntegral(t_total)} / matching {HalfIntegral(bsd)} differ")
    try:
        _odd_cycles(half)
    except GraphError:
        faults.append("half-weight support is not a disjoint union of odd cycles")
    check, failed = _check_matching, "fractional matching is infeasible"
    if bsd == n:
        check, failed = _partition, "fractional perfect matching partition failed"
    try:
        check(rows, partner, half, total)
    except GraphError as exc:
        faults.append(f"{failed}: {exc}")
    try:
        _check_cover(rows, r, c)
    except GraphError as exc:
        faults.append(f"transversal is infeasible: {exc}")
    if connected:
        if n > 1 and (s == 0) != (t == 0):
            faults.append("connected graph has exactly one of W, R empty")
        if t_total != bsd or t_total != n - (t - s):
            faults.append("optimal transversal violates total = (n - (|R|-|W|))/2")
        if t_total != bsd or t < s:
            faults.append("optimal transversal has |R| < |W|")
    return faults


# ---------------------------------------------------------------------------
# fractional matching witnesses


@dataclass(frozen=True)
class FractionalMatching:
    """Half-integral edge weights, stored doubled; only nonzero entries kept."""

    n: int
    doubled_weights: tuple[tuple[tuple[int, int], int], ...]
    total: HalfIntegral

    def _rows(self, n: int) -> tuple[list[int], list[int]]:
        """Partner and half-support rows on n vertices; raises GraphError on
        entries that rows cannot hold."""
        partner = [0] * n
        half = [0] * n
        seen = set()
        for (u, v), w in self.doubled_weights:
            if not (0 <= u < v < n):
                raise GraphError(f"weighted pair ({u},{v}) out of range")
            if (u, v) in seen:
                raise GraphError(f"duplicate weighted edge ({u},{v})")
            seen.add((u, v))
            if w not in (1, 2):
                raise GraphError(f"doubled weight must be 1 or 2, got {w}")
            masks = partner if w == 2 else half
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return partner, half

    def validate(self, g: Graph) -> None:
        _check_matching(g.rows, *self._rows(g.n), self.total.doubled)

    def to_text(self) -> str:
        names = {1: "1/2", 2: "1"}
        lines = [f"edge {u} {v} {names[w]}" for (u, v), w in sorted(self.doubled_weights)]
        return "\n".join(lines) + ("\n" if lines else "")


def optimal_fractional_matching(g: Graph) -> FractionalMatching:
    """Maximum fractional matching in canonical half-integral form.

    The witness core's matching (``_fractional_matching_from`` on one
    double-cover matching, the builder the structure audit checks) as an
    object, validated.
    """
    partner, half, total = _fractional_matching_from(g.rows, _dc_matching(g.rows, g.n)[0])
    weights = []
    for u, (p, h) in enumerate(zip(partner, half)):
        above = (p | h) >> (u + 1)  # each edge at its lower end u
        while above:
            v = u + (above & -above).bit_length()
            above &= above - 1
            weights.append(((u, v), 2 if p >> v & 1 else 1))
    fm = FractionalMatching(g.n, tuple(weights), HalfIntegral(total))
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
        _, r_mask, c_mask = self._class_masks()
        _check_cover(g.rows, r_mask, c_mask)
        if sum(dw) != self.total.doubled:
            raise GraphError("stored total does not match the weights")

    def to_text(self) -> str:
        names = {0: "0", 1: "1/2", 2: "1"}
        lines = [f"vertex {v} {names[w]}" for v, w in enumerate(self.doubled_weights)]
        return "\n".join(lines) + ("\n" if lines else "")


def fractional_transversal(g: Graph) -> Transversal:
    """Optimal half-integral transversal from the double cover's vertex cover.

    The W/R/C masks that ``_dc_matching`` reads off its last, failing
    breadth-first search (the cover the structure audit checks) as an
    object, validated.
    """
    w_bits, _, c_bits = dense_rows(_dc_matching(g.rows, g.n)[1:], g.n)
    dwv = tuple((2 * w_bits + c_bits).tolist())
    t = Transversal(g.n, dwv, HalfIntegral(sum(dwv)))
    t.validate(g)
    return t


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


def fpm_partition(g: Graph, m: FractionalMatching) -> FpmPartition:
    """Split a canonical fractional perfect matching into K2 and odd-cycle parts."""
    partner, half = m._rows(g.n)
    cycles = _partition(g.rows, partner, half, m.total.doubled)
    parts = [FpmPart("K2", (u, p.bit_length() - 1)) for u, p in enumerate(partner) if p >> (u + 1)]
    parts += [FpmPart("ODD_CYCLE", cycle) for cycle in cycles]
    return FpmPartition(tuple(sorted(parts, key=lambda p: p.vertices)))
