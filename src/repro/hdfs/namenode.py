"""The NameNode: namespace, replica map and placement policy."""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Optional

from repro.hdfs.block import Block
from repro.hdfs.datanode import DataNode


class NameNode:
    """Tracks files -> blocks -> replica locations.

    Placement policy mirrors Hadoop's: first replica on the writer's
    local DataNode when one exists, subsequent replicas on distinct
    nodes, balanced by current usage with random tie-breaking.
    """

    def __init__(self, rng: Optional[random.Random] = None) -> None:
        self.datanodes: Dict[str, DataNode] = {}
        self.files: Dict[str, List[Block]] = {}
        self.replicas: Dict[int, List[str]] = {}
        #: block id -> {target DataNode name: source name} of the
        #: re-replication copies in flight (Hadoop's pending
        #: replications).  The source is cleared once the bytes land.
        self.copies: Dict[int, Dict[str, Optional[str]]] = {}
        self._block_ids = itertools.count()
        self.rng = rng or random.Random(0)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def register_datanode(self, datanode: DataNode) -> None:
        if datanode.name in self.datanodes:
            raise ValueError(f"duplicate DataNode {datanode.name!r}")
        self.datanodes[datanode.name] = datanode

    def decommission_datanode(self, name: str) -> List[Block]:
        """Remove a DataNode; returns blocks now under-replicated.

        Copies in flight to it, or still streaming from it, are
        released so a later re-replication can schedule them again.
        """
        datanode = self.datanodes.pop(name)
        for copies in self.copies.values():
            for target, source in list(copies.items()):
                if name in (target, source):
                    del copies[target]
        lost: List[Block] = []
        for block_id, holders in self.replicas.items():
            if name in holders:
                holders.remove(name)
                lost.append(datanode.blocks.get(block_id) or self._find_block(block_id))
        return [b for b in lost if b is not None]

    def _find_block(self, block_id: int) -> Optional[Block]:
        for blocks in self.files.values():
            for block in blocks:
                if block.block_id == block_id:
                    return block
        return None

    # ------------------------------------------------------------------
    # namespace
    # ------------------------------------------------------------------
    def allocate_file(self, name: str, size_mb: float, block_size_mb: float) -> List[Block]:
        """Create namespace entries for a new file (no data placed yet)."""
        if name in self.files:
            raise ValueError(f"file {name!r} already exists")
        if size_mb <= 0:
            raise ValueError("file size must be positive")
        blocks: List[Block] = []
        remaining = size_mb
        index = 0
        while remaining > 1e-9:
            size = min(block_size_mb, remaining)
            blocks.append(Block(next(self._block_ids), name, index, size))
            remaining -= size
            index += 1
        self.files[name] = blocks
        for block in blocks:
            self.replicas[block.block_id] = []
        return blocks

    def delete_file(self, name: str) -> None:
        for block in self.files.pop(name):
            self.copies.pop(block.block_id, None)
            for holder in self.replicas.pop(block.block_id, []):
                datanode = self.datanodes.get(holder)
                if datanode is not None and datanode.holds(block):
                    datanode.drop(block)

    def blocks_of(self, name: str) -> List[Block]:
        if name not in self.files:
            raise KeyError(f"no such file {name!r}")
        return list(self.files[name])

    def file_size_mb(self, name: str) -> float:
        return sum(b.size_mb for b in self.blocks_of(name))

    # ------------------------------------------------------------------
    # replica management
    # ------------------------------------------------------------------
    def record_replica(self, block: Block, datanode_name: str) -> None:
        holders = self.replicas[block.block_id]
        if datanode_name in holders:
            raise ValueError(
                f"block {block.block_id} already replicated on {datanode_name}"
            )
        holders.append(datanode_name)

    def start_copy(self, block: Block, source: str, target: str) -> None:
        """Register a re-replication copy of ``block`` in flight."""
        self.copies.setdefault(block.block_id, {})[target] = source

    def land_copy(self, block: Block, source: str, target: str) -> bool:
        """The copy's bytes reached ``target``; False if it was released.

        A landed copy no longer depends on its source, so only the
        target's decommission can release it from here on.
        """
        copies = self.copies.get(block.block_id)
        if copies is None or copies.get(target) != source:
            return False
        copies[target] = None
        return True

    def finish_copy(self, block: Block, target: str) -> bool:
        """Release a copy as it records; False if it was released."""
        copies = self.copies.get(block.block_id)
        if copies is None or target not in copies:
            return False
        del copies[target]
        if not copies:
            del self.copies[block.block_id]
        return True

    def copies_in_flight(self, block: Block) -> int:
        return len(self.copies.get(block.block_id, ()))

    def replica_holders(self, block: Block) -> List[DataNode]:
        return [
            self.datanodes[name]
            for name in self.replicas.get(block.block_id, [])
            if name in self.datanodes
        ]

    def choose_targets(
        self,
        block: Block,
        replication: int,
        preferred_pm: Optional[object] = None,
        reserve: bool = False,
    ) -> List[DataNode]:
        """Pick ``replication`` distinct DataNodes for a new block.

        ``preferred_pm`` is the writer's physical machine; a DataNode on
        that machine gets the first replica (Hadoop's write-locality
        rule -- under the split architecture this is the storage VM
        sharing the writer's host).  Balance uses committed (stored +
        in-flight) bytes; ``reserve`` marks the chosen targets' capacity
        as in-flight so concurrent writers spread out instead of
        dog-piling one momentarily idle node.
        """
        if replication <= 0:
            raise ValueError("replication must be positive")
        # holders and targets of copies in flight both already count
        existing = set(self.replicas.get(block.block_id, []))
        existing.update(self.copies.get(block.block_id, ()))
        candidates = [d for d in self.datanodes.values() if d.name not in existing]
        if len(candidates) < replication:
            raise RuntimeError(
                f"not enough DataNodes for replication={replication} "
                f"(have {len(candidates)})"
            )
        targets: List[DataNode] = []
        if preferred_pm is not None:
            local = [d for d in candidates if d.context.pm is preferred_pm]
            if local:
                local.sort(key=lambda d: (d.committed_mb, d.name))
                targets.append(local[0])
                candidates.remove(local[0])
        while len(targets) < replication:
            least = min(d.committed_mb for d in candidates)
            pool = [d for d in candidates if d.committed_mb <= least + 1e-9]
            pick = pool[self.rng.randrange(len(pool))]
            targets.append(pick)
            candidates.remove(pick)
        if reserve:
            for target in targets:
                target.pending_mb += block.size_mb
        return targets

    def under_replicated(self, replication: int) -> List[Block]:
        """Blocks currently holding fewer than ``replication`` copies."""
        out: List[Block] = []
        for blocks in self.files.values():
            for block in blocks:
                if len(self.replicas.get(block.block_id, [])) < replication:
                    out.append(block)
        return out

    def total_stored_mb(self) -> float:
        return sum(d.used_mb for d in self.datanodes.values())
