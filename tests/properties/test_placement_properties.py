"""Property tests: a :class:`Placement`'s table answers exactly like the
ring walk of its strategy (``replicas_for_walk``, the readable
specification), for every range of every ring a join or a leave makes, and
for the production ring of every registered scenario."""

from __future__ import annotations

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import SimulatedCluster
from repro.cluster.replication import (
    NetworkTopologyStrategy,
    OldNetworkTopologyStrategy,
    Placement,
    SimpleStrategy,
)
from repro.cluster.ring import Murmur3Partitioner, RandomPartitioner, TokenRing
from repro.experiments.scenarios import SCALE_1000, ScenarioRegistry
from repro.network.topology import uniform_topology

keys = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=32
)

#: Ranges of the SCALE_1000 ring checked against the walk (of 8000).
SCALE_1000_SAMPLE = 200


def spec_replicas(strategy, ring, token):
    """Replica tuple of the range ending at ``token``, by the specification."""
    return tuple(strategy.replicas_for_walk(ring.walk_from_token(token)))


def build_strategy(kind, rf, topology, members):
    if kind == "simple":
        return SimpleStrategy(rf)
    if kind == "old_network_topology":
        return OldNetworkTopologyStrategy(rf, topology)
    # One factor per datacenter, small enough to survive a leave anywhere.
    in_dc = {dc: 0 for dc in topology.datacenter_names}
    for node in members:
        in_dc[topology.datacenter_of(node)] += 1
    factors = {dc: min(rf, count - 1) for dc, count in in_dc.items() if count > 1}
    assume(factors)
    return NetworkTopologyStrategy(factors, topology)


def assert_table_matches_the_walk(placement, strategy, ring, indices=None):
    tokens = ring.tokens
    assert len(placement.table) == len(tokens)
    for index in range(len(tokens)) if indices is None else indices:
        assert placement.table[index] == spec_replicas(strategy, ring, tokens[index])


def assert_keys_find_their_range(placement, strategy, ring, sample):
    for key in sample:
        replicas = placement.replicas_for(key)
        assert replicas == spec_replicas(strategy, ring, ring.token_of(key))
        assert placement.replicas_for(key) is replicas  # one shared tuple per range


@given(
    sample=st.lists(keys, min_size=1, max_size=24),
    n_nodes=st.integers(min_value=4, max_value=14),
    datacenters=st.integers(min_value=1, max_value=3),
    racks_per_dc=st.integers(min_value=1, max_value=4),
    vnodes=st.integers(min_value=1, max_value=16),
    rf=st.integers(min_value=1, max_value=3),
    kind=st.sampled_from(["simple", "old_network_topology", "network_topology"]),
    partitioner=st.sampled_from([Murmur3Partitioner(), RandomPartitioner()]),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_placement_matches_strategy_before_and_after_join_and_leave(
    sample, n_nodes, datacenters, racks_per_dc, vnodes, rf, kind, partitioner, data
):
    topology = uniform_topology(n_nodes, racks_per_dc=racks_per_dc, datacenters=datacenters)
    spare = topology.nodes[-1]
    members = topology.nodes[:-1]
    rf = min(rf, len(members) - 1)
    strategy = build_strategy(kind, rf, topology, members)
    leaving = data.draw(st.sampled_from(members), label="leaving")
    for ring_members in (members, members + [spare], [m for m in members if m != leaving]):
        ring = TokenRing(ring_members, partitioner=partitioner, vnodes=vnodes)
        placement = Placement(ring, strategy)
        assert_table_matches_the_walk(placement, strategy, ring)
        assert_keys_find_their_range(placement, strategy, ring, sample)


@pytest.mark.parametrize("name", ScenarioRegistry.names())
def test_production_ring_of_every_scenario_matches_the_walk(name):
    scenario = ScenarioRegistry.get(name)
    placement = SimulatedCluster(scenario.cluster_config(seed=1)).placement
    ring = placement.ring
    indices = None
    if scenario is SCALE_1000:
        indices = random.Random(1).sample(range(len(ring.tokens)), SCALE_1000_SAMPLE)
    assert_table_matches_the_walk(placement, placement.strategy, ring, indices)
