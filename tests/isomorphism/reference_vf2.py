"""Test-only reference VF2 search: the recursive backtracking formulation.

The library's :class:`~repro.isomorphism.vf2.VF2Matcher` runs an iterative
search over a per-pattern plan and counts search nodes locally.  The classes
here keep the straightforward version — a plan rebuilt for every pair, a
recursive ``backtrack`` closure and one ``budget.tick()`` per node — so the
property tests can require the two to agree on ``matched``, the embedding
and ``nodes_expanded``, node for node.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.graphs.graph import Graph
from repro.isomorphism.base import SearchBudget
from repro.isomorphism.vf2 import VF2Matcher
from repro.isomorphism.vf2_plus import VF2PlusMatcher


class _RecursiveSearch:
    """Mixin replacing ``_search`` with the recursive reference search."""

    def _search(
        self,
        pattern: Graph,
        target: Graph,
        budget: SearchBudget,
        want_embedding: bool,
    ) -> Optional[Dict[int, int]]:
        order = self._order(pattern, target)
        n = len(order)
        position_of = {vertex: pos for pos, vertex in enumerate(order)}
        anchor_positions: List[List[int]] = []
        unmapped_pattern_degree: List[int] = []
        base_masks: List[int] = []
        for pos, vertex in enumerate(order):
            anchors = [
                position_of[nb] for nb in pattern.neighbors(vertex) if position_of[nb] < pos
            ]
            anchor_positions.append(anchors)
            unmapped_pattern_degree.append(pattern.degree(vertex) - len(anchors))
            base_masks.append(
                target.label_id_mask(pattern.label_id(vertex))
                & target.degree_ge_mask(pattern.degree(vertex))
            )
        target_masks = target.neighbor_masks

        images: List[int] = [0] * n
        used_mask = 0

        def backtrack(pos: int) -> bool:
            nonlocal used_mask
            if pos == n:
                return True
            pool = base_masks[pos] & ~used_mask
            for anchor in anchor_positions[pos]:
                pool &= target_masks[images[anchor]]
                if not pool:
                    return False
            lookahead = unmapped_pattern_degree[pos]
            while pool:
                low = pool & -pool
                pool ^= low
                candidate = low.bit_length() - 1
                budget.tick()
                if (target_masks[candidate] & ~used_mask).bit_count() < lookahead:
                    continue
                images[pos] = candidate
                used_mask |= low
                if backtrack(pos + 1):
                    return True
                used_mask &= ~low
            return False

        if backtrack(0):
            return {vertex: images[pos] for pos, vertex in enumerate(order)}
        return None


class ReferenceVF2Matcher(_RecursiveSearch, VF2Matcher):
    """VF2 order, recursive reference search."""

    name = "vf2-reference"


class ReferenceVF2PlusMatcher(_RecursiveSearch, VF2PlusMatcher):
    """VF2+ order, recursive reference search."""

    name = "vf2plus-reference"
