"""The strongest correctness property in the suite: every protocol path
writes byte-identical files on every (disjoint) access pattern.

Patterns come from the synthetic generator (the paper's Figure 4 families
plus seeded random disjoint sets); protocols are independent I/O, the
ext2ph baseline, ParColl with several group counts and both
intermediate-view data paths, and node aggregation.
Hypothesis drives sizes and seeds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatypes import BYTE
from repro.workloads.base import deterministic_bytes
from repro.workloads.synthetic import (SyntheticConfig, file_bytes_total,
                                       filetype_for, reference_file,
                                       rank_offsets_for_interleaved)
from tests.conftest import Stack

PROTOCOLS = [
    {"protocol": "independent"},
    {"protocol": "ext2ph"},
    {"protocol": "ext2ph", "cb_buffer_size": 512},
    {"protocol": "parcoll", "parcoll_ngroups": 2},
    {"protocol": "parcoll", "parcoll_ngroups": 4, "cb_buffer_size": 512},
    {"protocol": "parcoll", "parcoll_ngroups": 4,
     "parcoll_data_path": "logical"},
    {"protocol": "parcoll", "parcoll_ngroups": 8,
     "parcoll_intermediate_views": False},
    {"protocol": "nodeagg"},
    {"protocol": "nodeagg", "parcoll_ngroups": 2},
]


def run_pattern(cfg: SyntheticConfig, hints: dict,
                validate=None) -> np.ndarray:
    st_ = Stack(nprocs=cfg.nprocs, stripe_size=512, n_osts=4,
                stripe_count=4, validate=validate)

    def program(comm, io):
        ft = filetype_for(cfg, comm.rank)
        disp = (rank_offsets_for_interleaved(cfg, comm.rank)
                if cfg.pattern == "interleaved" else 0)
        f = yield from io.open(comm, "synth", hints=hints)
        f.set_view(disp, BYTE, ft)
        data = deterministic_bytes(comm.rank, ft.size)
        yield from f.write_at_all(0, data)
        yield from f.close()

    st_.run(program)
    got = st_.file_bytes("synth")
    # pad to the reference size (trailing unwritten bytes are zero)
    full = np.zeros(file_bytes_total(cfg), dtype=np.uint8)
    full[: got.size] = got
    return full


@pytest.mark.parametrize("pattern", ["serial", "tiled", "interleaved",
                                     "random"])
@pytest.mark.parametrize("hints", PROTOCOLS,
                         ids=[str(h) for h in PROTOCOLS])
def test_every_protocol_matches_reference(pattern, hints):
    cfg = SyntheticConfig(pattern=pattern, nprocs=8, bytes_per_rank=2048,
                          piece_bytes=128, seed=3)
    expected = reference_file(cfg, deterministic_bytes)
    got = run_pattern(cfg, hints)
    np.testing.assert_array_equal(got, expected)


@settings(max_examples=15, deadline=None)
@given(
    pattern=st.sampled_from(["serial", "tiled", "interleaved", "random"]),
    nprocs=st.sampled_from([2, 4, 6, 8]),
    bytes_per_rank=st.sampled_from([256, 1024, 3072]),
    piece=st.sampled_from([64, 256]),
    seed=st.integers(0, 10_000),
    proto=st.sampled_from(["ext2ph", "parcoll"]),
    ngroups=st.sampled_from([2, 3, 8]),
)
def test_random_patterns_roundtrip(pattern, nprocs, bytes_per_rank, piece,
                                   seed, proto, ngroups):
    cfg = SyntheticConfig(pattern=pattern, nprocs=nprocs,
                          bytes_per_rank=bytes_per_rank, piece_bytes=piece,
                          seed=seed)
    hints = {"protocol": proto}
    if proto == "parcoll":
        hints["parcoll_ngroups"] = ngroups
    expected = reference_file(cfg, deterministic_bytes)
    got = run_pattern(cfg, hints)
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("hints", PROTOCOLS[:5],
                         ids=[str(h) for h in PROTOCOLS[:5]])
def test_read_back_equivalence(hints):
    """Reads through every protocol return each rank's own bytes."""
    cfg = SyntheticConfig(pattern="interleaved", nprocs=4,
                          bytes_per_rank=1024, piece_bytes=128)

    st_ = Stack(nprocs=cfg.nprocs, stripe_size=512, n_osts=4, stripe_count=4)

    def program(comm, io):
        ft = filetype_for(cfg, comm.rank)
        disp = rank_offsets_for_interleaved(cfg, comm.rank)
        f = yield from io.open(comm, "rb", hints=hints)
        f.set_view(disp, BYTE, ft)
        data = deterministic_bytes(comm.rank, ft.size)
        yield from f.write_at_all(0, data)
        got = yield from f.read_at_all(0, ft.size)
        yield from f.close()
        return got

    results = st_.run(program)
    for rank, got in enumerate(results):
        np.testing.assert_array_equal(
            got, deterministic_bytes(rank,
                                     filetype_for(cfg, rank).size))


@pytest.mark.parametrize("pattern", ["serial", "tiled", "interleaved",
                                     "random"])
def test_registry_cross_product_under_oracle(pattern):
    """Every protocol in the table, under the runtime oracle, writes the
    byte-identical reference file — the table-wide differential property
    (a new table entry is covered automatically)."""
    from repro.mpiio import PROTOCOLS

    cfg = SyntheticConfig(pattern=pattern, nprocs=4, bytes_per_rank=1024,
                          piece_bytes=128, seed=7)
    expected = reference_file(cfg, deterministic_bytes)
    for name in PROTOCOLS:
        hints = {"protocol": name}
        if name in ("parcoll", "nodeagg"):
            hints["parcoll_ngroups"] = 2
        got = run_pattern(cfg, hints, validate=True)
        np.testing.assert_array_equal(
            got, expected, err_msg=f"protocol {name!r} on {pattern!r}")
