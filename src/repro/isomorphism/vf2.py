"""VF2: backtracking subgraph-isomorphism search (Cordella et al., 2004).

This is the "vanilla VF2" verifier that most FTV implementations bundle
(GraphGrepSX, Grapes) and one of the SI methods evaluated in the paper.  The
implementation solves the *non-induced* decision problem on vertex-labelled
undirected graphs:

* pattern vertices are mapped in a connectivity-preserving static order
  (each vertex after the first of its component has an already-mapped
  neighbour);
* a candidate target vertex must carry the same label, have sufficient
  degree, not be used already, and be adjacent to the images of all mapped
  pattern neighbours;
* a standard one-step look-ahead prunes candidates whose unmapped
  neighbourhood cannot cover the pattern vertex's unmapped neighbourhood.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence

from ..graphs.graph import Graph
from .base import SearchBudget, SubgraphMatcher

__all__ = ["VF2Matcher"]


def connectivity_order(pattern: Graph, priority: Optional[Sequence[float]] = None) -> List[int]:
    """Return a vertex order where each vertex has a previously-ordered neighbour.

    ``priority`` (higher = earlier) breaks ties among frontier vertices; by
    default vertices are taken in id order, which reproduces the behaviour of
    the original VF2 on its input ordering.  Implemented with lazy-deletion
    heaps over ``(-priority, vertex)`` so each step costs ``O(log n)`` instead
    of a linear scan; the selection rule (highest priority, then lowest vertex
    id, new components seeded from the best remaining vertex) is unchanged.
    """
    n = pattern.order
    if n == 0:
        return []
    if priority is None:
        priority = [0.0] * n
    neighbor_masks = pattern.neighbor_masks
    ordered: List[int] = []
    placed_mask = 0
    remaining_heap = [(-priority[v], v) for v in range(n)]
    heapq.heapify(remaining_heap)
    frontier: List[tuple] = []
    while len(ordered) < n:
        # Prefer the component frontier; fall back to the best remaining
        # vertex (starting a new component).  Stale heap entries (vertices
        # placed since they were pushed) are skipped lazily.
        heap = frontier if frontier else remaining_heap
        vertex = heapq.heappop(heap)[1]
        if placed_mask >> vertex & 1:
            continue
        placed_mask |= 1 << vertex
        ordered.append(vertex)
        fresh = neighbor_masks[vertex] & ~placed_mask
        while fresh:
            low = fresh & -fresh
            fresh ^= low
            neighbour = low.bit_length() - 1
            heapq.heappush(frontier, (-priority[neighbour], neighbour))
    return ordered


class VF2Matcher(SubgraphMatcher):
    """Vanilla VF2 for non-induced, vertex-labelled subgraph isomorphism.

    A search *plan* has two halves.  The pattern half — vertex order, the
    positions of the already-mapped neighbours at each position (anchors),
    the look-ahead degrees and each position's label id and degree — is an
    immutable tuple cached on the matcher.  The target half — each
    position's label- and degree-qualified candidate mask — is a handful of
    mask lookups and is rebuilt on every call.  VF2's order depends on the
    pattern alone, so its plans are keyed by the pattern and a query pays
    for its plan once, however many candidates it is verified against.
    """

    name = "vf2"

    #: Whether :meth:`_order` reads the target.  If so, plans are cached per
    #: ``(pattern, target)`` pair instead of per pattern.
    ORDER_READS_TARGET = False

    #: Upper bound on cached plans; the cache is cleared when it fills (a
    #: safety valve — at reproduction scale it never does).
    PLAN_CACHE_LIMIT = 65536

    def __init__(self) -> None:
        self._plan_cache: Dict[object, tuple] = {}

    def _order(self, pattern: Graph, target: Graph) -> List[int]:
        """Pattern vertex processing order; subclasses override to reorder."""
        return connectivity_order(pattern)

    def _plan(self, pattern: Graph, target: Graph) -> tuple:
        """Cached pattern half: (order, anchors, lookahead, label_ids, degrees)."""
        key = (pattern, target) if self.ORDER_READS_TARGET else pattern
        plan = self._plan_cache.get(key)
        if plan is not None:
            return plan
        order = self._order(pattern, target)
        # Per position: the positions of the pattern neighbours already mapped
        # when that position is reached (they drive candidate generation) and
        # the number of pattern neighbours still unmapped there (for the
        # one-step look-ahead).
        position_of = {vertex: pos for pos, vertex in enumerate(order)}
        anchor_positions = []
        unmapped_pattern_degree = []
        for pos, vertex in enumerate(order):
            anchors = tuple(
                position_of[nb] for nb in pattern.neighbors(vertex) if position_of[nb] < pos
            )
            anchor_positions.append(anchors)
            unmapped_pattern_degree.append(pattern.degree(vertex) - len(anchors))
        plan = (
            tuple(order),
            tuple(anchor_positions),
            tuple(unmapped_pattern_degree),
            tuple(pattern.label_id(vertex) for vertex in order),
            tuple(pattern.degree(vertex) for vertex in order),
        )
        if len(self._plan_cache) >= self.PLAN_CACHE_LIMIT:
            self._plan_cache.clear()
        self._plan_cache[key] = plan
        return plan

    def _search(
        self,
        pattern: Graph,
        target: Graph,
        budget: SearchBudget,
        want_embedding: bool,
    ) -> Optional[Dict[int, int]]:
        order, anchor_positions, lookahead, label_ids, degrees = self._plan(pattern, target)
        n = len(order)
        # Target half of the plan: label- and degree-compatible vertices.
        label_id_mask = target.label_id_mask
        degree_ge_mask = target.degree_ge_mask
        base_masks = [
            label_id_mask(label_id) & degree_ge_mask(degree)
            for label_id, degree in zip(label_ids, degrees)
        ]
        target_masks = target.neighbor_masks
        tick = budget.tick if budget.limited else None

        # Depth-first search with an explicit stack: images[pos] is the
        # target image of the vertex at pos, pools[pos] its untried
        # candidates.  Candidates are tried in ascending vertex order;
        # free_mask holds the target vertices not used by the mapping.
        images = [0] * n
        pools = [0] * n
        free_mask = target.full_vertex_mask
        nodes = 0
        pos = 0
        pool = base_masks[0]
        need = lookahead[0]
        while True:
            while pool:
                low = pool & -pool
                pool ^= low
                candidate = low.bit_length() - 1
                nodes += 1
                if tick is not None:
                    tick()
                # One-step look-ahead: the candidate must have at least as
                # many unmapped neighbours as the pattern vertex (necessary
                # condition for extending the mapping later).
                if (target_masks[candidate] & free_mask).bit_count() < need:
                    continue
                images[pos] = candidate
                pools[pos] = pool
                free_mask ^= low
                pos += 1
                if pos == n:
                    if tick is None:
                        budget.add_nodes(nodes)
                    return {vertex: images[p] for p, vertex in enumerate(order)}
                # Candidate pool: label- and degree-compatible target
                # vertices, unused, adjacent to the image of every
                # already-mapped pattern neighbour (which also enforces
                # adjacency consistency).
                need = lookahead[pos]
                pool = base_masks[pos] & free_mask
                for anchor in anchor_positions[pos]:
                    pool &= target_masks[images[anchor]]
                    if not pool:
                        break
            # Pool exhausted: undo the mapping one position up and resume
            # its remaining candidates.
            pos -= 1
            if pos < 0:
                if tick is None:
                    budget.add_nodes(nodes)
                return None
            free_mask |= 1 << images[pos]
            pool = pools[pos]
            need = lookahead[pos]
