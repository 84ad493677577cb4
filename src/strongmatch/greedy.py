"""Greedy induced matchings: baselines with weaker but simple guarantees.

Three strategies, each deterministic for a fixed labeling:

  greedy_induced_matching   any graph, size >= ceil(m / (2D(D-1) + 1))
  forest_greedy_induced_matching   forests, size >= ceil(m / (2D - 1))
  girth6_induced_matching   girth >= 6, size >= ceil(4(n - i) / (D + 2)^2)

where D is the maximum degree and i the number of isolated vertices.
"""

from __future__ import annotations

from collections import Counter
from heapq import heapify, heappop, heappush
from itertools import chain

from .graph import (
    Edge,
    Graph,
    GraphError,
    _alive_closed,
    _delete,
    _ring,
    girth,
    normalize_edge,
)
from .oracle import _bits, _conflict_masks

# the largest m that greedy_induced_matching runs on conflict bitmasks
MASK_EDGE_CAP = 1_024


def greedy_induced_matching(g: Graph) -> list[Edge]:
    """Maximal induced matching, repeatedly taking a least-conflicting edge.

    Two edges conflict when they share an endpoint or are joined by an
    edge.  Taking an edge discards at most 2D(D-1) others, so any maximal
    selection has size at least ceil(m / (2D(D-1) + 1)); preferring the
    edge with the fewest live conflicts (ties to the smaller edge id) just
    tends to do better than that floor.

    Live-conflict counts only ever decrease, so the edges wait in one heap
    of integer keys ``count * m + id``, and an edge whose count drops is
    pushed again under its new key.  A popped key whose edge died, or that
    differs from its edge's current count, is stale and skipped; the loop
    stops as soon as no live edge is left, so the stale keys still queued
    then are never popped.  The conflict graph is held one of two ways,
    picked by size alone; both pick the same edges in the same order:

      m <= MASK_EDGE_CAP   _greedy_by_masks, one int bitmask per edge
      m >  MASK_EDGE_CAP   _greedy_by_lists, one conflict tuple per edge and
                           one counting pass per pick

    The masks take m^2/8 bytes and each recount costs O(m/w) operations on
    w-bit words, so they lose to the lists between about 2,000 and 4,000
    edges.  Lowest of 3 calls in each of 4 processes on a 2-core Intel Xeon
    under Python 3.11, lists against masks, on
    gen_random_bounded_degree(3m / D, m, D) graphs of maximum degree D:

      m       D = 3            D = 6
      512     1.5 vs 1.1 ms    3.1 vs 1.9 ms
      1,024   3.1 vs 2.5 ms    6.1 vs 4.6 ms
      2,048   6.4 vs 5.8 ms    13.0 vs 12.0 ms
      4,096   13.2 vs 15.6 ms  26.6 vs 35.3 ms
    """
    if g.m <= MASK_EDGE_CAP:
        return _greedy_by_masks(g)
    return _greedy_by_lists(g)


def _greedy_by_masks(g: Graph) -> list[Edge]:
    """greedy_induced_matching on the conflict bitmasks of
    oracle._conflict_masks, live edges being the bits of one int.

    Taking edge i kills ``(masks[i] | 1 << i) & alive``.  The live edges in
    the OR of the killed edges' masks are exactly those whose count drops;
    each is recounted as ``(masks[t] & alive).bit_count()`` and pushed
    once, the key the list path files after its decrements.  O(m) picks
    and recounts of O(m/w) words each, O(m^2/w) words of memory.
    """
    edges = g.edges
    m = len(edges)
    masks = _conflict_masks(g.adj, edges)
    cdeg = [mask.bit_count() for mask in masks]
    heap = [k * m + i for i, k in enumerate(cdeg)]
    heapify(heap)
    alive = (1 << m) - 1
    chosen: list[Edge] = []
    while alive:
        key = heappop(heap)
        i = key % m
        if not alive >> i & 1 or cdeg[i] * m + i != key:
            continue
        chosen.append(edges[i])
        killed = (masks[i] | 1 << i) & alive
        alive ^= killed
        hits = 0
        for j in _bits(killed):
            hits |= masks[j]
        for t in _bits(hits & alive):
            k = (masks[t] & alive).bit_count()
            cdeg[t] = k
            heappush(heap, k * m + t)
    return sorted(chosen)


def _greedy_by_lists(g: Graph) -> list[Edge]:
    """greedy_induced_matching on conflict tuples: ``conf[i]`` holds edge
    i's conflicts, i itself included, and a pick applies all the count
    decrements it causes in one counting pass, after which each edge it
    touched is pushed once.  Time and memory are O(m + sum |conf|) =
    O(mD^2), with a log m factor on each filing for the heap.
    """
    edges = g.edges
    m = len(edges)
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(edges):
        incident[u].append(i)
        incident[v].append(i)
    # near[x]: the edges meeting N(x), with repeats.  The edges conflicting
    # with uv, uv included, are those meeting N(u) | N(v), as in
    # oracle._conflict_masks.  Freeing each table once read lowers the peak.
    near = [[*chain.from_iterable(map(incident.__getitem__, nbrs))] for nbrs in g.adj]
    del incident
    conf = [(*{*near[u], *near[v]},) for u, v in edges]
    del near
    cdeg = [len(span) - 1 for span in conf]
    alive = bytearray(b"\x01" * m)
    heap = [k * m + i for i, k in enumerate(cdeg)]
    heapify(heap)
    chosen: list[Edge] = []
    live = m
    while live:
        key = heappop(heap)
        i = key % m
        if not alive[i] or cdeg[i] * m + i != key:
            continue
        chosen.append(edges[i])
        killed = [j for j in conf[i] if alive[j]]
        live -= len(killed)
        for j in killed:
            alive[j] = 0
        for t, k in Counter([t for j in killed for t in conf[j] if alive[t]]).items():
            cdeg[t] -= k
            heappush(heap, cdeg[t] * m + t)
    return sorted(chosen)


def forest_greedy_induced_matching(g: Graph) -> list[Edge]:
    """Bottom-up induced matching in a forest, size >= ceil(m / (2D - 1)).

    Each tree is rooted at its smallest vertex and vertices are processed
    deepest first.  When a vertex and its parent are both alive, their
    edge is taken and both alive closed neighborhoods are deleted, as in
    the reduction engine; an edge lives while both its ends do.
    Processing deepest first means all edges strictly below the taken edge
    are already dead, so a step discards at most 1 + 2(D - 1) live edges,
    which gives the stated size.  Raises GraphError when g has a cycle: the
    walk that roots a tree meets it as an edge to a vertex already reached.
    """
    adj = g.adj
    alive = bytearray(b"\x01" * g.n)
    chosen: list[Edge] = []
    depth = [0] * g.n
    parent = [-1] * g.n
    reached = bytearray(g.n)
    for root in range(g.n):
        if reached[root]:
            continue
        reached[root] = 1
        order = [root]
        for v in order:
            for w in adj[v]:
                if w != parent[v]:
                    if reached[w]:
                        raise GraphError("forest strategy requires an acyclic graph")
                    reached[w] = 1
                    parent[w] = v
                    depth[w] = depth[v] + 1
                    order.append(w)
        order.sort(key=lambda v: (-depth[v], v))
        for v in order:
            p = parent[v]
            if p < 0 or not (alive[v] and alive[p]):
                continue
            chosen.append(normalize_edge(v, p))
            for w in _alive_closed(adj, alive, (v, p)):
                alive[w] = 0
    return sorted(chosen)


def girth6_induced_matching(g: Graph) -> list[Edge]:
    """Induced matching of size >= ceil(4(n - i) / (D + 2)^2), girth >= 6.

    While an end-vertex exists, pick the vertex v with the most pendant
    neighbors (say k of them; ties to the smallest v), match v with its
    smallest pendant neighbor, and delete N[v].  Only pendants hanging off
    N(v) become isolated, at most k per vertex by the choice of v, so the
    step consumes at most (D + 1) + k(D - k) <= (D + 2)^2 / 4 vertices.
    Without end-vertices, take the smallest edge uv and delete N[u] and
    N[v]: at most 2D <= (D + 2)^2 / 4 vertices, and the girth condition
    means nothing becomes isolated.  Raises GraphError when girth < 6.

    The alive graph is kept as in the reduction engine, with the shared
    graph._alive_closed, graph._ring and graph._delete; pendant counts are
    refreshed on the vertices that graph._delete reports.
    """
    gv = girth(g)
    if gv is not None and gv < 6:
        raise GraphError(f"girth-6 strategy requires girth >= 6, got {gv}")
    n = g.n
    adj = g.adj
    deg = g.degrees()
    alive = bytearray(d > 0 for d in deg)
    # every neighbor of a vertex has degree >= 1, so it is alive
    kcount = [sum(1 for w in nbrs if deg[w] == 1) for nbrs in adj]
    heap = [(-kcount[v], v) for v in range(n) if kcount[v] > 0]
    heapify(heap)
    ptr = 0
    chosen: list[Edge] = []
    while True:
        while heap:
            negk, v = heap[0]
            if alive[v] and kcount[v] == -negk:
                break
            heappop(heap)
        if heap:
            v = heap[0][1]
            u = next(w for w in adj[v] if alive[w] and deg[w] == 1)
        else:
            # every alive vertex keeps an alive neighbor: isolated ones are
            # dropped up front and by graph._delete
            while ptr < n and not alive[ptr]:
                ptr += 1
            if ptr == n:
                break
            u = ptr
            v = next(w for w in adj[u] if alive[w])
        # N[u] is inside N[v] for a pendant u, so both cases delete N[u] | N[v]
        removal = _alive_closed(adj, alive, (u, v))
        chosen.append(normalize_edge(u, v))
        for t in _delete(adj, alive, deg, removal, _ring(adj, alive, removal)):
            k = sum(1 for w in adj[t] if alive[w] and deg[w] == 1)
            kcount[t] = k
            if k > 0:
                heappush(heap, (-k, t))
    return sorted(chosen)
