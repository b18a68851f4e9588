"""DataNodes: block storage bound to an execution context.

A DataNode's reads and writes hit the disk of whatever machine its
context lives on -- natively, in Dom-0, or through a guest VM (where
the hypervisor I/O efficiency applies).  In the paper's *split
architecture* (Figure 3) DataNodes get their own storage VMs, separate
from the compute VMs running TaskTrackers; here that is just a matter
of which context each component is constructed on.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.cluster.machine import ExecutionContext
from repro.hdfs.block import Block
from repro.sim.pool import PoolEntry


class DataNode:
    """Stores block replicas and serves disk I/O for them."""

    def __init__(self, name: str, context: ExecutionContext) -> None:
        self.name = name
        self.context = context
        self.blocks: Dict[int, Block] = {}
        self.used_mb = 0.0
        #: MB reserved by in-flight writes (placement balance accounting)
        self.pending_mb = 0.0
        self.bytes_read_mb = 0.0
        self.bytes_written_mb = 0.0

    @property
    def committed_mb(self) -> float:
        """Stored plus in-flight bytes; the placement balance metric."""
        return self.used_mb + self.pending_mb

    @property
    def host(self) -> str:
        """Network endpoint of the machine this DataNode lives on."""
        return self.context.host

    def holds(self, block: Block) -> bool:
        return block.block_id in self.blocks

    # ------------------------------------------------------------------
    # storage mutation
    # ------------------------------------------------------------------
    def store_instantly(self, block: Block) -> None:
        """Place a replica without simulating the write (data preload)."""
        if block.block_id in self.blocks:
            raise ValueError(f"{self.name} already holds block {block.block_id}")
        self.blocks[block.block_id] = block
        self.used_mb += block.size_mb

    def drop(self, block: Block) -> None:
        if block.block_id not in self.blocks:
            raise KeyError(f"{self.name} does not hold block {block.block_id}")
        del self.blocks[block.block_id]
        self.used_mb -= block.size_mb

    # ------------------------------------------------------------------
    # timed I/O
    # ------------------------------------------------------------------
    def read_block(
        self,
        block: Block,
        on_complete: Optional[Callable[[], None]] = None,
        efficiency_penalty: float = 0.0,
        cached: bool = False,
    ) -> PoolEntry:
        """Read the replica (``cached`` serves it from the page cache)."""
        if not self.holds(block):
            raise KeyError(f"{self.name} does not hold block {block.block_id}")
        self.bytes_read_mb += block.size_mb
        return self.context.run_disk(
            block.size_mb,
            on_complete=on_complete,
            label=f"{self.name}:read:{block.block_id}",
            efficiency_penalty=efficiency_penalty,
            cached=cached,
        )

    def write_block(
        self,
        block: Block,
        on_complete: Optional[Callable[[], None]] = None,
        efficiency_penalty: float = 0.0,
        cached: bool = False,
    ) -> PoolEntry:
        """Write a new replica; ``cached`` uses the page-cache path."""
        if self.holds(block):
            raise ValueError(f"{self.name} already holds block {block.block_id}")

        def stored() -> None:
            self.blocks[block.block_id] = block
            self.used_mb += block.size_mb
            self.pending_mb = max(0.0, self.pending_mb - block.size_mb)
            self.bytes_written_mb += block.size_mb
            if on_complete is not None:
                on_complete()

        return self.context.run_disk(
            block.size_mb,
            on_complete=stored,
            label=f"{self.name}:write:{block.block_id}",
            efficiency_penalty=efficiency_penalty,
            cached=cached,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DataNode({self.name!r}, blocks={len(self.blocks)})"
