"""Token ring and partitioners.

Cassandra assigns each node one (or more) tokens on a ring; a key is hashed
to a token and owned by the first node found walking clockwise from that
token.  Replication strategies (see :mod:`repro.cluster.replication`) then
pick additional replicas by continuing the walk.

Two partitioners are provided:

* :class:`Murmur3Partitioner` -- a fast, well-mixed 64-bit hash (a pure
  Python implementation of MurmurHash3's 64-bit finaliser over blake2 input,
  sufficient for uniform key spreading in the simulator);
* :class:`RandomPartitioner` -- MD5-based, mirroring Cassandra's classic
  ``RandomPartitioner`` used in the 1.0.x era the paper targets.
"""

from __future__ import annotations

import bisect
import hashlib
from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence

from repro.network.topology import NodeAddress

__all__ = ["Partitioner", "Murmur3Partitioner", "RandomPartitioner", "TokenRing"]


class Partitioner(ABC):
    """Maps a key (string) to an integer token in ``[0, 2**64)``."""

    TOKEN_SPACE = 2**64

    @abstractmethod
    def token(self, key: str) -> int:
        """Return the token of ``key`` (uniformly spread over the token space)."""

    def node_token(self, address: NodeAddress, index: int = 0) -> int:
        """Token assigned to a node (or to its ``index``-th virtual node)."""
        return self.token(f"__node__:{address}:{index}")


class Murmur3Partitioner(Partitioner):
    """64-bit hash partitioner (MurmurHash3-style finaliser).

    The implementation hashes with BLAKE2b (stable across platforms and
    Python versions) and then applies the Murmur3 64-bit finaliser to get the
    avalanche behaviour a partitioner needs.
    """

    @staticmethod
    def _fmix64(value: int) -> int:
        mask = 0xFFFFFFFFFFFFFFFF
        value &= mask
        value ^= value >> 33
        value = (value * 0xFF51AFD7ED558CCD) & mask
        value ^= value >> 33
        value = (value * 0xC4CEB9FE1A85EC53) & mask
        value ^= value >> 33
        return value

    def token(self, key: str) -> int:
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
        return self._fmix64(int.from_bytes(digest, "little"))


class RandomPartitioner(Partitioner):
    """MD5-based partitioner mirroring Cassandra's ``RandomPartitioner``."""

    def token(self, key: str) -> int:
        digest = hashlib.md5(key.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")


class TokenRing:
    """Maps tokens to nodes and answers ownership / walk queries.

    Parameters
    ----------
    nodes:
        Node addresses participating in the ring.
    partitioner:
        Token hash function (defaults to :class:`Murmur3Partitioner`).
    vnodes:
        Number of virtual nodes (tokens) per physical node.  Cassandra 1.0
        used a single token per node; a handful of vnodes gives a more even
        load spread for small simulated clusters, so the default is 8.
    """

    def __init__(
        self,
        nodes: Sequence[NodeAddress],
        partitioner: Optional[Partitioner] = None,
        vnodes: int = 8,
    ) -> None:
        if not nodes:
            raise ValueError("a ring needs at least one node")
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes!r}")
        if len(set(nodes)) != len(nodes):
            raise ValueError("duplicate node addresses in ring")
        self.partitioner = partitioner or Murmur3Partitioner()
        self.vnodes = int(vnodes)
        self._nodes: List[NodeAddress] = list(nodes)
        self._token_map: Dict[int, NodeAddress] = {}
        node_index: Dict[NodeAddress, int] = {node: i for i, node in enumerate(self._nodes)}
        for node in self._nodes:
            for index in range(self.vnodes):
                token = self.partitioner.node_token(node, index)
                # Extremely unlikely collision; nudge deterministically.
                while token in self._token_map:
                    token = (token + 1) % Partitioner.TOKEN_SPACE
                self._token_map[token] = node
        self._sorted_tokens: List[int] = sorted(self._token_map)
        # The owner of sorted token i as an *index* into self._nodes: the
        # clockwise walk deduplicates physical nodes with a bytearray, and
        # replication strategies sweep it to build their per-range tables.
        self._owner_index: List[int] = [
            node_index[self._token_map[token]] for token in self._sorted_tokens
        ]

    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[NodeAddress]:
        """Physical nodes in the ring (construction order)."""
        return list(self._nodes)

    @property
    def tokens(self) -> List[int]:
        """Sorted ring tokens (a copy); token ``i`` ends the ``i``-th range."""
        return list(self._sorted_tokens)

    @property
    def owner_indices(self) -> List[int]:
        """Owner of each sorted token as an index into :attr:`nodes` (a copy)."""
        return list(self._owner_index)

    @property
    def size(self) -> int:
        return len(self._nodes)

    def token_of(self, key: str) -> int:
        """Token of a data key."""
        return self.partitioner.token(key)

    def primary_replica(self, key: str) -> NodeAddress:
        """The node owning the key's token (first clockwise from the token)."""
        return self.walk_from_token(self.token_of(key))[0]

    def walk_from_token(self, token: int) -> List[NodeAddress]:
        """Distinct physical nodes in clockwise order starting at ``token``.

        The walk visits every physical node once; a replication strategy's
        ``replicas_for_walk`` consumes a prefix of it.
        """
        tokens = self._sorted_tokens
        owners = self._owner_index
        nodes = self._nodes
        start = bisect.bisect_left(tokens, token % Partitioner.TOKEN_SPACE)
        seen = bytearray(len(nodes))
        ordered: List[NodeAddress] = []
        for index in owners[start:] + owners[:start]:
            if not seen[index]:
                seen[index] = 1
                ordered.append(nodes[index])
                if len(ordered) == len(nodes):
                    break
        return ordered

    def walk_from_key(self, key: str) -> List[NodeAddress]:
        """Clockwise node walk starting at the key's token."""
        return self.walk_from_token(self.token_of(key))

    def ownership(self, sample_keys: Sequence[str]) -> Dict[NodeAddress, int]:
        """Count how many of ``sample_keys`` each node primarily owns.

        Used by tests to verify the ring spreads load roughly evenly.
        """
        counts: Dict[NodeAddress, int] = {node: 0 for node in self._nodes}
        for key in sample_keys:
            counts[self.primary_replica(key)] += 1
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TokenRing(nodes={len(self._nodes)}, vnodes={self.vnodes})"
