"""Exact strong matching number via maximum independent set on the conflict graph.

Two edges of G conflict when they share an endpoint or some endpoint of one
is adjacent to an endpoint of the other; induced matchings of G are exactly
the independent sets of the conflict graph.  Conflict graphs of
bounded-degree graphs are dense, so optima are small and branch-and-bound
with a clique-cover bound terminates quickly.

The public entry rejects inputs of more than ORACLE_EDGE_CAP = 64 edges
rather than silently attempt them.  The cap is an explicit resource limit
on an exponential search, not the width of its masks, which are unbounded
Python ints.

The search itself, _max_independent, sees only the conflict bitmasks that
_conflict_masks builds from an adjacency and a sorted edge list.  The public
entry runs it on a Graph; the reduction engine runs it on each small
component straight from its alive adjacency, with no Graph per component.
_conflict_masks has a third caller, the general greedy, which runs on these
masks for graphs of up to greedy.MASK_EDGE_CAP edges.
"""

from __future__ import annotations

from typing import Sequence

from .graph import Edge, Graph, GraphError

ORACLE_EDGE_CAP = 64
DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """Branch-and-bound node budget exhausted before proving optimality."""

    def __init__(self, nodes: int):
        self.nodes = nodes
        super().__init__(f"search budget exhausted after {nodes} nodes")


def _conflict_masks(adj: Sequence[Sequence[int]], edges: Sequence[Edge]) -> list[int]:
    """Conflict graph of ``edges``: ``masks[i]`` is the bitmask of the indices
    into ``edges`` of the edges that meet N(u) | N(v), where edges[i] is uv,
    i excluded.  That is N[u] | N[v], as v is in N(u).  ``adj`` may list
    neighbors that carry no edge of ``edges``; they add nothing.  Symmetric
    and loop-free by construction.  The dicts are keyed by endpoints only,
    so a small component of a large graph costs nothing of size n."""
    incident: dict[int, int] = {}
    for i, (u, v) in enumerate(edges):
        bit = 1 << i
        incident[u] = incident.get(u, 0) | bit
        incident[v] = incident.get(v, 0) | bit
    at = incident.get
    # near[x]: the edges meeting N(x), once per endpoint x
    near: dict[int, int] = {}
    for x in incident:
        mask = 0
        for y in adj[x]:
            mask |= at(y, 0)
        near[x] = mask
    return [(near[u] | near[v]) & ~(1 << i) for i, (u, v) in enumerate(edges)]


def exact_strong_matching_number(
    g: Graph, budget: int = DEFAULT_BUDGET
) -> tuple[int, list[Edge]]:
    """Maximum induced matching size plus one witness, deterministic.

    Branch-and-bound on the conflict graph: branch on a maximum-degree node
    (ties to the smallest index), include-first; prune with the candidate
    count and a greedy clique-cover bound.  Raises BudgetExceededError when
    more than ``budget`` search nodes are expanded, GraphError for m > 64.
    """
    m = g.m
    if m > ORACLE_EDGE_CAP:
        raise GraphError(f"oracle supports at most {ORACLE_EDGE_CAP} edges, got {m}")
    if m == 0:
        return 0, []
    best_set = _max_independent(_conflict_masks(g.adj, g.edges), budget)
    return best_set.bit_count(), [g.edges[i] for i in _bits(best_set)]


def _max_independent(masks: list[int], budget: int = DEFAULT_BUDGET) -> int:
    """Bitmask of a maximum independent set of the conflict graph ``masks``,
    by the search exact_strong_matching_number describes.  Deterministic
    for fixed masks; raises BudgetExceededError past ``budget`` nodes."""
    m = len(masks)
    # deterministic greedy start: take nodes in index order when compatible
    best_set = 0
    blocked = 0
    for i in range(m):
        bit = 1 << i
        if not blocked & bit:
            best_set |= bit
            blocked |= bit | masks[i]
    best = best_set.bit_count()

    full = (1 << m) - 1
    nodes_expanded = 0
    # iterative DFS; include-branch pushed last so it is explored first
    stack: list[tuple[int, int, int]] = [(full, 0, 0)]
    while stack:
        cand, size, chosen = stack.pop()
        nodes_expanded += 1
        if nodes_expanded > budget:
            raise BudgetExceededError(nodes_expanded)
        if not cand:
            if size > best:
                best = size
                best_set = chosen
            continue
        k = cand.bit_count()
        if size + k <= best:
            continue
        if size + _clique_cover_bound(cand, masks) <= best:
            continue
        pick = _max_degree_node(cand, masks)
        bit = 1 << pick
        stack.append((cand & ~bit, size, chosen))
        stack.append((cand & ~bit & ~masks[pick], size + 1, chosen | bit))
    return best_set


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _max_degree_node(cand: int, masks: list[int]) -> int:
    best_i = -1
    best_d = -1
    for i in _bits(cand):
        d = (masks[i] & cand).bit_count()
        if d > best_d:
            best_d = d
            best_i = i
    return best_i


def _clique_cover_bound(cand: int, masks: list[int]) -> int:
    """Greedy partition of cand into cliques; the clique count bounds the MIS.

    Each node joins the first clique whose members are all its neighbors,
    so a clique is kept only as the common neighborhood of its members."""
    common: list[int] = []
    for i in _bits(cand):
        bit = 1 << i
        for c, shared in enumerate(common):
            if shared & bit:
                common[c] = shared & masks[i]
                break
        else:
            common.append(masks[i])
    return len(common)
