"""VF2/VF2+ against the recursive reference search: same tree, node for node.

The library search is iterative, plans once per pattern (VF2) or per pair
(VF2+), and counts nodes locally on an unlimited budget.  None of that may
change the search: ``matched``, the witness embedding and ``nodes_expanded``
must equal the reference's on every input, for decoded graphs and packed
views on either side, and a node or time limit must fire at the same node.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import MatchTimeout
from repro.graphs.generators import random_connected_graph
from repro.graphs.graph import Graph
from repro.graphs.packed import PackedGraphView
from repro.isomorphism import VF2Matcher, VF2PlusMatcher
from repro.isomorphism.base import SearchBudget

from .reference_vf2 import ReferenceVF2Matcher, ReferenceVF2PlusMatcher

LABELS = ["C", "N", "O"]

PAIRS = (
    pytest.param(VF2Matcher, ReferenceVF2Matcher, id="vf2"),
    pytest.param(VF2PlusMatcher, ReferenceVF2PlusMatcher, id="vf2plus"),
)

PATTERN_KINDS = ("contained", "random", "single", "disconnected", "larger")


def _disjoint_union(first: Graph, second: Graph) -> Graph:
    offset = first.order
    return Graph(
        labels=list(first.labels) + list(second.labels),
        edges=list(first.edges) + [(u + offset, v + offset) for u, v in second.edges],
    )


def _pattern(kind: str, target: Graph, rng: random.Random) -> Graph:
    if kind == "contained":
        k = rng.randint(1, max(1, target.order // 2))
        return target.induced_subgraph(rng.sample(range(target.order), k=k))
    if kind == "random":
        return random_connected_graph(rng.randint(2, 7), 2.2, LABELS, rng)
    if kind == "single":
        return Graph(labels=[rng.choice(LABELS)])
    if kind == "disconnected":
        return _disjoint_union(
            random_connected_graph(rng.randint(1, 4), 2.0, LABELS, rng),
            random_connected_graph(rng.randint(1, 4), 2.0, LABELS, rng),
        )
    return random_connected_graph(target.order + rng.randint(1, 3), 2.4, LABELS, rng)


def _as(graph: Graph, packed: bool) -> Graph:
    return PackedGraphView(graph.to_packed()) if packed else graph


def _outcome(matcher, pattern, target, budget=None):
    result = matcher.match(pattern, target, budget=budget)
    return result.matched, result.embedding, result.nodes_expanded


class TestReferenceIdentity:
    @pytest.mark.parametrize("matcher_cls, reference_cls", PAIRS)
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        kind=st.sampled_from(PATTERN_KINDS),
        packed_pattern=st.booleans(),
        packed_target=st.booleans(),
    )
    def test_same_search_as_reference(
        self, matcher_cls, reference_cls, seed, kind, packed_pattern, packed_target
    ):
        rng = random.Random(seed)
        target = random_connected_graph(rng.randint(1, 16), rng.uniform(1.5, 3.5), LABELS, rng)
        pattern = _pattern(kind, target, rng)
        expected = _outcome(reference_cls(), pattern, target)
        matcher = matcher_cls()
        actual = _outcome(matcher, _as(pattern, packed_pattern), _as(target, packed_target))
        assert actual == expected
        # A second call is served from the plan cache and must not differ.
        assert _outcome(matcher, pattern, target) == expected
        if expected[0]:
            assert matcher.verify_embedding(pattern, target, actual[1])

    @pytest.mark.parametrize("matcher_cls, reference_cls", PAIRS)
    def test_many_targets_share_one_matcher(self, matcher_cls, reference_cls):
        # One query verified against many candidates, as the executor does.
        rng = random.Random(5)
        targets = [random_connected_graph(14, 2.8, LABELS, rng) for _ in range(30)]
        pattern = targets[0].induced_subgraph(range(5))
        matcher = matcher_cls()
        for target in targets:
            assert _outcome(matcher, pattern, target) == _outcome(
                reference_cls(), pattern, target
            )


def _hard_pair():
    """A miss whose search expands well over 64 nodes (odd cycle, bipartite host)."""
    left, right = range(6), range(6, 12)
    target = Graph(labels=["C"] * 12, edges=[(u, v) for u in left for v in right])
    pattern = Graph(labels=["C"] * 5, edges=[(i, (i + 1) % 5) for i in range(5)])
    return pattern, target


class TestBudgetContract:
    @pytest.mark.parametrize("matcher_cls, reference_cls", PAIRS)
    @pytest.mark.parametrize("seed", range(6))
    def test_node_limit_fires_at_the_same_node(self, matcher_cls, reference_cls, seed):
        if seed == 0:
            pattern, target = _hard_pair()
        else:
            rng = random.Random(seed)
            target = random_connected_graph(16, 3.0, LABELS, rng)
            if seed % 2:
                pattern = target.induced_subgraph(rng.sample(range(16), k=7))
            else:
                pattern = random_connected_graph(6, 2.4, LABELS, rng)
        total = _outcome(reference_cls(), pattern, target)[2]
        for limit in sorted({0, 1, total // 2, max(0, total - 1), total, total + 1}):
            results = []
            for cls in (matcher_cls, reference_cls):
                budget = SearchBudget(node_limit=limit)
                try:
                    outcome = _outcome(cls(), pattern, target, budget)
                except MatchTimeout:
                    outcome = "timeout"
                results.append((outcome, budget.nodes_expanded))
            assert results[0] == results[1]
            if limit < total:
                assert results[0] == ("timeout", limit + 1)

    @pytest.mark.parametrize("matcher_cls", [VF2Matcher, VF2PlusMatcher])
    def test_zero_time_limit_raises(self, matcher_cls):
        pattern, target = _hard_pair()
        budget = SearchBudget(time_limit_s=0.0)
        with pytest.raises(MatchTimeout):
            matcher_cls().match(pattern, target, budget=budget)
        # The clock is read every 64 nodes, so the first check fires.
        assert budget.nodes_expanded == 64

    def test_limited_and_add_nodes(self):
        assert SearchBudget(node_limit=3).limited
        assert SearchBudget(time_limit_s=1.0).limited
        assert not SearchBudget().limited
        budget = SearchBudget()
        budget.start()
        budget.add_nodes(7)
        budget.tick()
        assert budget.nodes_expanded == 8
