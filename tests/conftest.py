"""Shared fixtures: a small simulated machine + file system + MPI-IO stack.

Hypothesis runs under one of two registered profiles, selected by the
``HYPOTHESIS_PROFILE`` environment variable:

* ``fast`` (default) — few, seeded, deterministic examples; what CI's
  test matrix and local ``pytest`` runs use;
* ``thorough`` — many examples with no deadline, for a property sweep
  (``HYPOTHESIS_PROFILE=thorough pytest``); CI's ``perf-smoke`` job
  runs the matching, mailbox and engine property modules under it with
  ``--hypothesis-seed=0``.
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.cluster import MachineConfig, NetworkParams
from repro.lustre import LustreFS, LustreParams
from repro.mpiio import MPIIO
from repro.simmpi import World

settings.register_profile(
    "fast", max_examples=20, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow])
settings.register_profile(
    "thorough", max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "fast"))


class Stack:
    """A bundled world + file system + MPI-IO library for tests."""

    def __init__(self, nprocs=8, cores_per_node=2, mapping="block",
                 collective_mode="analytic", store_data=True,
                 stripe_size=256, stripe_count=4, n_osts=4, jitter=0.0,
                 seed=0, validate=None, **net_kw):
        self.world = World(
            MachineConfig(nprocs=nprocs, cores_per_node=cores_per_node,
                          mapping=mapping),
            net_params=NetworkParams(**net_kw),
            collective_mode=collective_mode,
        )
        self.fs = LustreFS(self.world.engine,
                           LustreParams(n_osts=n_osts,
                                        default_stripe_count=stripe_count,
                                        default_stripe_size=stripe_size,
                                        jitter=jitter,
                                        store_data=store_data),
                           seed=seed)
        self.io = MPIIO(self.world, self.fs, validate=validate)
        self.nprocs = nprocs

    def run(self, program):
        """program(comm, io) generator per rank; returns per-rank results."""
        return self.world.launch(lambda comm: program(comm, self.io))

    def file_bytes(self, name):
        return self.fs.lookup(name).contents()


@pytest.fixture
def stack_factory():
    return Stack


def rank_pattern(rank: int, n: int) -> np.ndarray:
    """Deterministic per-rank test bytes."""
    return ((np.arange(n) * 31 + rank * 7 + 13) % 251).astype(np.uint8)
