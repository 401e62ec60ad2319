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

A :class:`Placement` binds a strategy to the ring of one membership epoch:
it builds every token range's replica set once, in one sweep over the ring
(:meth:`ReplicationStrategy.table`), and answers key -> replica-set lookups
from that table.
"""

from __future__ import annotations

import bisect
from abc import ABC, abstractmethod
from collections import Counter
from typing import Dict, List, Mapping, Sequence, Tuple

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
    """Chooses the replica set of every token range of a ring."""

    def __init__(self, replication_factor: int) -> None:
        if replication_factor < 1:
            raise ValueError(f"replication factor must be >= 1, got {replication_factor!r}")
        self.replication_factor = int(replication_factor)

    @abstractmethod
    def replicas_for_walk(self, walk: Sequence[NodeAddress]) -> List[NodeAddress]:
        """Select replicas (in preference order) from a clockwise node walk.

        The readable specification of the strategy: :meth:`table` answers,
        for every range, what this answers for the walk starting there.
        """

    @abstractmethod
    def table(self, ring: TokenRing) -> List[Tuple[NodeAddress, ...]]:
        """Replica tuple of every range of ``ring``, indexed like ``ring.tokens``.

        Entry ``i`` equals ``replicas_for_walk(ring.walk_from_token(t))``
        for ``t = ring.tokens[i]``.  Only called on rings that passed
        :meth:`check_ring`.
        """

    def check_ring(self, ring: TokenRing) -> None:
        """Raise ``ValueError`` unless every key of ``ring`` can be placed."""
        if ring.size < self.replication_factor:
            raise ValueError(
                f"ring has {ring.size} members, below the replication factor "
                f"{self.replication_factor}"
            )


def _fill(chosen: List[int], lap: Sequence[int], position: int, want: int) -> None:
    """Append distinct owners of ``lap[position:]`` to ``chosen`` until it
    holds ``want`` (``lap`` is two laps of the ring's owner indices, so one
    lap from any start has every member)."""
    while len(chosen) < want:
        index = lap[position]
        if index not in chosen:
            chosen.append(index)
        position += 1


class SimpleStrategy(ReplicationStrategy):
    """First ``RF`` distinct nodes of the walk, topology-agnostic."""

    def replicas_for_walk(self, walk: Sequence[NodeAddress]) -> List[NodeAddress]:
        return list(walk[: self.replication_factor])

    def table(self, ring: TokenRing) -> List[Tuple[NodeAddress, ...]]:
        nodes = ring.nodes
        lap = ring.owner_indices * 2
        rf = self.replication_factor
        table = []
        for start in range(len(lap) // 2):
            chosen = [lap[start]]
            _fill(chosen, lap, start + 1, rf)
            table.append(tuple([nodes[i] for i in chosen]))
        return table


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

    def table(self, ring: TokenRing) -> List[Tuple[NodeAddress, ...]]:
        # The node a rule picks from a walk is the owner of the first
        # position with its property, so two backward sweeps over two laps
        # of the ring give every start's rule-2 and rule-3 position.
        nodes = ring.nodes
        rf = self.replication_factor
        owners = ring.owner_indices
        count = len(owners)
        lap = owners * 2
        span = len(lap)  # "no such position": beyond every lap
        topology = self._topology
        dc_of = [topology.datacenter_of(node) for node in nodes]
        rack_of = [topology.rack_of(node) for node in nodes]
        dc = [dc_of[i] for i in lap]
        rack = [rack_of[i] for i in lap]  # only compared within one datacenter
        next_other_dc = [span] * span
        next_other_rack = [span] * span  # same datacenter, another rack
        next_in_dc: Dict[str, int] = {}
        for p in range(span - 1, -1, -1):
            if p + 1 < span:
                next_other_dc[p] = p + 1 if dc[p + 1] != dc[p] else next_other_dc[p + 1]
            q = next_in_dc.get(dc[p], span)
            next_other_rack[p] = q if q == span or rack[q] != rack[p] else next_other_rack[q]
            next_in_dc[dc[p]] = p
        table = []
        for start in range(count):
            chosen = [lap[start]]
            end = start + count
            q = next_other_dc[start]
            if q < end and len(chosen) < rf:
                chosen.append(lap[q])
            q = next_other_rack[start]
            if q < end and len(chosen) < rf:
                chosen.append(lap[q])
            _fill(chosen, lap, start + 1, rf)
            table.append(tuple([nodes[i] for i in chosen]))
        return table


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

    def table(self, ring: TokenRing) -> List[Tuple[NodeAddress, ...]]:
        # Each datacenter walks only its own positions, from the first one
        # at or after the range start.  The first pass stops at the factor
        # or once every rack of the datacenter in the ring holds a replica;
        # a node is picked at its first position, whose offset from the
        # start is its place in the walk.
        nodes = ring.nodes
        owners = ring.owner_indices
        count = len(owners)
        topology = self._topology
        rack_of = [topology.rack_of(node) for node in nodes]
        per_dc = []
        for dc, rf in self._factors.items():
            positions = [
                p for p, i in enumerate(owners) if topology.datacenter_of(nodes[i]) == dc
            ]
            racks = len({rack_of[owners[p]] for p in positions})
            per_dc.append((rf, min(rf, racks), positions, positions * 2))
        table = []
        for start in range(count):
            offsets: Dict[int, int] = {}
            for rf, distinct, positions, lap in per_dc:
                first = bisect.bisect_left(positions, start)
                racks_used: set[str] = set()
                j = first
                while len(racks_used) < distinct:
                    p = lap[j]
                    i = owners[p]
                    if rack_of[i] not in racks_used:
                        offsets[i] = (p - start) % count
                        racks_used.add(rack_of[i])
                    j += 1
                # Racks exhausted before the factor: reuse racks.
                taken = distinct
                j = first
                while taken < rf:
                    p = lap[j]
                    i = owners[p]
                    if i not in offsets:
                        offsets[i] = (p - start) % count
                        taken += 1
                    j += 1
            table.append(tuple([nodes[i] for i in sorted(offsets, key=offsets.__getitem__)]))
        return table


class Placement:
    """Replica sets of one ring epoch, one immutable tuple per token range.

    Building it checks the strategy against the ring's members, so a ring
    that cannot hold every replica fails here, not on a write, and then
    builds every range's tuple in one sweep (``strategy.table``).  A key
    maps to its token, and the token by bisect to the range ending at the
    next ring token: every key of a range starts its ring walk at the same
    position.  A membership change builds a new ``Placement``, so caches
    keyed on its tuples never go stale.
    """

    __slots__ = ("ring", "strategy", "table", "_token", "_ends")

    def __init__(self, ring: TokenRing, strategy: ReplicationStrategy) -> None:
        strategy.check_ring(ring)
        self.ring = ring
        self.strategy = strategy
        #: Replica tuple of each range, indexed like ``ring.tokens``.
        self.table: Tuple[Tuple[NodeAddress, ...], ...] = tuple(strategy.table(ring))
        self._token = ring.partitioner.token
        self._ends = ring.tokens

    def replicas_for(self, key: str) -> Tuple[NodeAddress, ...]:
        """Replica set of ``key``; the first element is the primary replica."""
        ends = self._ends
        index = bisect.bisect_left(ends, self._token(key) % Partitioner.TOKEN_SPACE)
        if index == len(ends):
            index = 0  # past the last token: the range wrapping through zero
        return self.table[index]
