"""Property tests: a per-range :class:`Placement` answers exactly like the
per-key ring walk of its strategy, on every ring a join or a leave makes."""

from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cluster.replication import (
    NetworkTopologyStrategy,
    OldNetworkTopologyStrategy,
    Placement,
    SimpleStrategy,
)
from repro.cluster.ring import Murmur3Partitioner, RandomPartitioner, TokenRing
from repro.network.topology import uniform_topology

keys = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=32
)


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


def assert_matches_the_walk(placement, strategy, ring, sample):
    for key in sample:
        replicas = placement.replicas_for(key)
        assert replicas == tuple(strategy.replicas(ring, key))
        assert placement.replicas_for(key) is replicas  # resolved once per range


@given(
    sample=st.lists(keys, min_size=1, max_size=24),
    n_nodes=st.integers(min_value=4, max_value=14),
    datacenters=st.integers(min_value=1, max_value=3),
    vnodes=st.integers(min_value=1, max_value=8),
    rf=st.integers(min_value=1, max_value=3),
    kind=st.sampled_from(["simple", "old_network_topology", "network_topology"]),
    partitioner=st.sampled_from([Murmur3Partitioner(), RandomPartitioner()]),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_placement_matches_strategy_before_and_after_join_and_leave(
    sample, n_nodes, datacenters, vnodes, rf, kind, partitioner, data
):
    topology = uniform_topology(n_nodes, racks_per_dc=2, datacenters=datacenters)
    spare = topology.nodes[-1]
    members = topology.nodes[:-1]
    rf = min(rf, len(members) - 1)
    strategy = build_strategy(kind, rf, topology, members)
    leaving = data.draw(st.sampled_from(members), label="leaving")
    for ring_members in (members, members + [spare], [m for m in members if m != leaving]):
        ring = TokenRing(ring_members, partitioner=partitioner, vnodes=vnodes)
        assert_matches_the_walk(Placement(ring, strategy), strategy, ring, sample)
