"""Replica placement strategies.

Given the clockwise node walk produced by the token ring, a replication
strategy selects which nodes hold the ``RF`` replicas of a key.

* :class:`SimpleStrategy` takes the first ``RF`` distinct nodes of the walk,
  ignoring topology (Cassandra's ``SimpleStrategy``).
* :class:`OldNetworkTopologyStrategy` mirrors the strategy the paper
  configures ("this strategy ensures that data is replicated over all the
  clusters and racks"): the first replica is the walk's first node, the
  second replica is the first node found in a *different datacenter*, the
  third is the first node in a *different rack* of the first datacenter, and
  the remaining replicas follow the walk.  With a single datacenter the
  cross-DC preference degrades gracefully to cross-rack placement.
* :class:`NetworkTopologyStrategy` is the modern geo-replication strategy:
  an explicit **per-datacenter replication factor** (e.g.
  ``{"dc1": 3, "dc2": 2}``).  Each datacenter independently takes its
  configured number of replicas from the walk, spreading them over distinct
  racks first -- exactly the placement contract the DC-aware consistency
  levels (``LOCAL_QUORUM``, ``EACH_QUORUM``) rely on.

A :class:`Placement` binds a strategy to the ring of one membership epoch
and answers key -> replica-set lookups once per token range.
"""

from __future__ import annotations

import bisect
from abc import ABC, abstractmethod
from collections import Counter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cluster.ring import Partitioner, TokenRing
from repro.network.topology import NodeAddress, Topology

__all__ = [
    "ReplicationStrategy",
    "SimpleStrategy",
    "OldNetworkTopologyStrategy",
    "NetworkTopologyStrategy",
    "Placement",
]


class ReplicationStrategy(ABC):
    """Chooses the replica set of a key from the ring walk."""

    def __init__(self, replication_factor: int) -> None:
        if replication_factor < 1:
            raise ValueError(f"replication factor must be >= 1, got {replication_factor!r}")
        self.replication_factor = int(replication_factor)

    @abstractmethod
    def replicas_for_walk(self, walk: Sequence[NodeAddress]) -> List[NodeAddress]:
        """Select replicas (in preference order) from a clockwise node walk."""

    def walk_limit(self) -> Optional[int]:
        """How many distinct nodes of the clockwise walk this strategy needs.

        ``None`` means the full walk (topology-aware strategies may have to
        scan past the first RF nodes to find another datacenter or rack);
        topology-agnostic strategies return their replication factor so the
        ring can stop walking early.
        """
        return None

    def check_ring(self, ring: TokenRing) -> None:
        """Raise ``ValueError`` unless every key of ``ring`` can be placed."""
        if ring.size < self.replication_factor:
            raise ValueError(
                f"ring has {ring.size} members, below the replication factor "
                f"{self.replication_factor}"
            )

    def replicas(self, ring: TokenRing, key: str) -> List[NodeAddress]:
        """Replica set for a key; the first element is the primary replica."""
        walk = ring.walk_from_key(key, limit=self.walk_limit())
        if len(walk) < self.replication_factor:
            raise ValueError(
                f"replication factor {self.replication_factor} exceeds cluster size {len(walk)}"
            )
        selected = self.replicas_for_walk(walk)
        if len(selected) != self.replication_factor:  # pragma: no cover - defensive
            raise RuntimeError(
                f"{type(self).__name__} selected {len(selected)} replicas, "
                f"expected {self.replication_factor}"
            )
        return selected


class SimpleStrategy(ReplicationStrategy):
    """First ``RF`` distinct nodes of the walk, topology-agnostic."""

    def walk_limit(self) -> Optional[int]:
        return self.replication_factor

    def replicas_for_walk(self, walk: Sequence[NodeAddress]) -> List[NodeAddress]:
        return list(walk[: self.replication_factor])


class OldNetworkTopologyStrategy(ReplicationStrategy):
    """Rack- and datacenter-aware placement (Cassandra's OldNetworkTopologyStrategy).

    Placement rules, applied to the clockwise walk starting at the key's
    token:

    1. the first node of the walk is always a replica (the primary);
    2. the next replica is the first node in a *different datacenter* from
       the primary, if any;
    3. the next replica is the first node in the primary's datacenter but a
       *different rack*, if any;
    4. remaining replicas are filled from the walk in order, skipping nodes
       already chosen.
    """

    def __init__(self, replication_factor: int, topology: Topology) -> None:
        super().__init__(replication_factor)
        self._topology = topology

    def replicas_for_walk(self, walk: Sequence[NodeAddress]) -> List[NodeAddress]:
        primary = walk[0]
        chosen: List[NodeAddress] = [primary]
        if self.replication_factor == 1:
            return chosen
        primary_dc = self._topology.datacenter_of(primary)
        primary_rack = self._topology.rack_of(primary)

        def first_matching(predicate) -> NodeAddress | None:
            for node in walk:
                if node in chosen:
                    continue
                if predicate(node):
                    return node
            return None

        # Rule 2: a replica in another datacenter.
        other_dc = first_matching(lambda n: self._topology.datacenter_of(n) != primary_dc)
        if other_dc is not None and len(chosen) < self.replication_factor:
            chosen.append(other_dc)

        # Rule 3: a replica in the primary DC but another rack.
        other_rack = first_matching(
            lambda n: self._topology.datacenter_of(n) == primary_dc
            and self._topology.rack_of(n) != primary_rack
        )
        if other_rack is not None and len(chosen) < self.replication_factor:
            chosen.append(other_rack)

        # Rule 4: fill the remainder from the walk.
        for node in walk:
            if len(chosen) == self.replication_factor:
                break
            if node not in chosen:
                chosen.append(node)
        return chosen


class NetworkTopologyStrategy(ReplicationStrategy):
    """Per-datacenter replica placement (Cassandra's ``NetworkTopologyStrategy``).

    Parameters
    ----------
    replication_factors:
        Datacenter name -> number of replicas that datacenter must hold.
        Every named datacenter must exist in the topology and contain at
        least that many nodes; zero entries are dropped.
    topology:
        The cluster layout the placement consults for DC/rack membership.

    Placement contract (checked by the property tests):

    * each datacenter receives **exactly** its configured replica count;
    * no node holds more than one replica of a key;
    * within a datacenter, replicas prefer distinct racks -- a rack is only
      reused once every rack of the datacenter already holds a replica;
    * replicas are returned in ring-walk order, so the walk's first selected
      node remains the primary and proximity ordering stays meaningful.
    """

    def __init__(self, replication_factors: Mapping[str, int], topology: Topology) -> None:
        factors = {dc: int(rf) for dc, rf in replication_factors.items() if int(rf) != 0}
        if not factors:
            raise ValueError("NetworkTopologyStrategy needs at least one non-zero DC factor")
        if any(rf < 0 for rf in factors.values()):
            raise ValueError(f"replication factors must be non-negative, got {dict(replication_factors)!r}")
        known = set(topology.datacenter_names)
        unknown = set(factors) - known
        if unknown:
            raise ValueError(
                f"replication factors reference unknown datacenter(s) {sorted(unknown)}; "
                f"topology has {sorted(known)}"
            )
        for dc, rf in factors.items():
            available = len(topology.nodes_in_datacenter(dc))
            if rf > available:
                raise ValueError(
                    f"datacenter {dc!r} has {available} nodes, fewer than its "
                    f"replication factor {rf}"
                )
        super().__init__(sum(factors.values()))
        self._topology = topology
        self._factors = dict(factors)

    @property
    def replication_factors(self) -> Dict[str, int]:
        """Per-datacenter replication factors (a copy)."""
        return dict(self._factors)

    def replication_factor_for(self, datacenter: str) -> int:
        """Replicas held by one datacenter (0 for datacenters not configured)."""
        return self._factors.get(datacenter, 0)

    def check_ring(self, ring: TokenRing) -> None:
        # The constructor checked the topology, spares included; the ring
        # may hold fewer nodes of a datacenter.
        super().check_ring(ring)
        members = Counter(self._topology.datacenter_of(node) for node in ring.nodes)
        for dc, rf in self._factors.items():
            if members[dc] < rf:
                raise ValueError(
                    f"datacenter {dc!r} has {members[dc]} ring members, below its "
                    f"replication factor {rf}"
                )

    def replicas_for_walk(self, walk: Sequence[NodeAddress]) -> List[NodeAddress]:
        chosen: set[NodeAddress] = set()
        for dc, rf in self._factors.items():
            taken = 0
            racks_used: set[str] = set()
            # First pass: one replica per distinct rack, in walk order.
            for node in walk:
                if taken == rf:
                    break
                if self._topology.datacenter_of(node) != dc or node in chosen:
                    continue
                if self._topology.rack_of(node) in racks_used:
                    continue
                chosen.add(node)
                racks_used.add(self._topology.rack_of(node))
                taken += 1
            # Second pass: racks exhausted before the factor -- reuse racks.
            if taken < rf:
                for node in walk:
                    if taken == rf:
                        break
                    if self._topology.datacenter_of(node) != dc or node in chosen:
                        continue
                    chosen.add(node)
                    taken += 1
            if taken < rf:  # pragma: no cover - check_ring validates sizes
                raise RuntimeError(
                    f"walk exhausted before placing {rf} replicas in datacenter {dc!r}"
                )
        return [node for node in walk if node in chosen]


class Placement:
    """Replica sets of one ring epoch, resolved once per token range.

    Building it checks the strategy against the ring's members, so a ring
    that cannot hold every replica fails here, not on a write.  A key maps
    to its token, the token by bisect to the range ending at the next ring
    token, and the range to one immutable replica tuple, computed by
    ``strategy.replicas`` on first use: every key of a range starts its
    ring walk at the same position.  A membership change builds a new
    ``Placement``, so caches keyed on its tuples never go stale.
    """

    __slots__ = ("ring", "strategy", "_token", "_ends", "_by_range")

    def __init__(self, ring: TokenRing, strategy: ReplicationStrategy) -> None:
        strategy.check_ring(ring)
        self.ring = ring
        self.strategy = strategy
        self._token = ring.partitioner.token
        self._ends = ring.tokens
        self._by_range: List[Optional[Tuple[NodeAddress, ...]]] = [None] * len(self._ends)

    def replicas_for(self, key: str) -> Tuple[NodeAddress, ...]:
        """Replica set of ``key``; the first element is the primary replica."""
        ends = self._ends
        index = bisect.bisect_left(ends, self._token(key) % Partitioner.TOKEN_SPACE)
        if index == len(ends):
            index = 0  # past the last token: the range wrapping through zero
        replicas = self._by_range[index]
        if replicas is None:
            replicas = tuple(self.strategy.replicas(self.ring, key))
            self._by_range[index] = replicas
        return replicas
