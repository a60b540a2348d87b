"""Modelled multiprocessor, synchronization protocols, partitioning."""

from .backend import BackendOutcome, WorkerCore
from .cost import DISTRIBUTED, SHARED_MEMORY, CostModel
from .dist import DistMachine, run_dist, serve
from .engine import AdaptPolicy, LPRuntime, Processor, ProtocolError
from .machine import (PROTOCOLS, ParallelMachine, ParallelOutcome,
                      run_parallel)
from .partition import (PARTITIONERS, bfs_blocks, block, cut_channels,
                        round_robin)
from .procs import ProcsMachine, run_procs
from .threads import ThreadedMachine, run_threaded

__all__ = [
    "BackendOutcome", "WorkerCore",
    "CostModel", "SHARED_MEMORY", "DISTRIBUTED",
    "DistMachine", "run_dist", "serve",
    "AdaptPolicy", "LPRuntime", "Processor", "ProtocolError",
    "PROTOCOLS", "ParallelMachine", "ParallelOutcome", "run_parallel",
    "PARTITIONERS", "round_robin", "block", "bfs_blocks", "cut_channels",
    "ProcsMachine", "run_procs",
    "ThreadedMachine", "run_threaded",
]
