"""Cray XT machine model: nodes, process mappings, interconnect.

The machine model carries exactly the structure ParColl's mechanisms are
defined over: physical nodes with multiple cores (Jaguar's dual-core PEs),
the block/cyclic rank-to-node mappings of Figure 5, per-node NIC resources
(SeaStar analog), and a LogGP-style network cost model.
"""

from repro.cluster.machine import Machine, MachineConfig
from repro.cluster.network import NetworkModel, NetworkParams

__all__ = [
    "Machine",
    "MachineConfig",
    "NetworkModel",
    "NetworkParams",
]
