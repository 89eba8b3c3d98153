"""Layer-2 invariant checkers: pass on real protocol state, fire on
corrupted state.  Every checker gets one "good" case built by the code
under normal operation and at least one deliberately broken mutation."""

from dataclasses import replace

import numpy as np
import pytest

from repro.datatypes.flatten import coalesce
from repro.errors import ValidationError
from repro.mpiio.two_phase import plan_rounds
from repro.parcoll.intermediate_view import IntermediateView
from repro.parcoll.partition import plan_partition
from repro.validate.invariants import (check_aggregator_distribution,
                                       check_exchange_plan,
                                       check_iview_roundtrip,
                                       check_partition_plan,
                                       check_round_conservation)


def serial_extents(nprocs=4, per_rank=1024):
    return [(r * per_rank, (r + 1) * per_rank, per_rank)
            for r in range(nprocs)]


def interleaved_extents(nprocs=4, per_rank=1024, piece=256):
    # every rank spans nearly the whole file: forces intermediate mode
    stride = nprocs * piece
    out = []
    for r in range(nprocs):
        lo = r * piece
        hi = lo + stride * (per_rank // piece - 1) + piece
        out.append((lo, hi, per_rank))
    return out


class TestPartitionPlan:
    def test_direct_plan_passes(self):
        extents = serial_extents()
        plan = plan_partition(extents, 2)
        check_partition_plan(plan, extents)

    def test_intermediate_plan_passes(self):
        extents = interleaved_extents()
        plan = plan_partition(extents, 2)
        assert plan.uses_intermediate_view
        check_partition_plan(plan, extents)

    def test_overlapping_fas_fire(self):
        extents = serial_extents()
        plan = plan_partition(extents, 2)
        bad = replace(plan, fa_bounds=((0, 3000), (1024, 4096)))
        with pytest.raises(ValidationError, match="hull|overlap"):
            check_partition_plan(bad, extents)

    def test_bad_group_ids_fire(self):
        extents = serial_extents()
        plan = plan_partition(extents, 2)
        bad = replace(plan, group_of=(0, 0, 0, 2))
        with pytest.raises(ValidationError, match="group ids"):
            check_partition_plan(bad, extents)

    def test_logical_gap_fires(self):
        extents = interleaved_extents()
        plan = plan_partition(extents, 2)
        (lo0, hi0), (lo1, hi1) = plan.fa_bounds
        bad = replace(plan, fa_bounds=((lo0, hi0 - 8), (lo1, hi1)))
        with pytest.raises(ValidationError):
            check_partition_plan(bad, extents)


class TestAggregatorDistribution:
    # 4 ranks on 2 nodes (2 cores/node): node_of = rank // 2
    node_of = staticmethod(lambda r: r // 2)

    def test_clean_assignment_passes(self):
        check_aggregator_distribution(
            groups=[[0, 1], [2, 3]], assignment=[[0], [2]],
            agg_nodes=[0, 1], node_of=self.node_of)

    def test_empty_assignment_fires_constraint_a(self):
        with pytest.raises(ValidationError, match=r"constraint \(a\)"):
            check_aggregator_distribution(
                groups=[[0, 1], [2, 3]], assignment=[[0], []],
                agg_nodes=[0, 1], node_of=self.node_of)

    def test_shared_node_fires_constraint_b(self):
        # two multi-aggregator (non-fallback) groups both claim node 0
        with pytest.raises(ValidationError, match=r"constraint \(b\)"):
            check_aggregator_distribution(
                groups=[[0, 2], [1, 3]], assignment=[[0, 2], [1, 3]],
                agg_nodes=[0, 1], node_of=self.node_of)

    def test_fallback_sharing_a_node_is_allowed(self):
        # group 1's single min-member aggregator may reuse node 0: the
        # requirement-(a) fallback overrides node exclusivity
        check_aggregator_distribution(
            groups=[[0, 2], [1, 3]], assignment=[[0, 2], [1]],
            agg_nodes=[0], node_of=self.node_of)

    def test_unused_hosting_slot_fires_constraint_c(self):
        with pytest.raises(ValidationError, match=r"constraint \(c\)"):
            check_aggregator_distribution(
                groups=[[0, 1, 2, 3]], assignment=[[0]],
                agg_nodes=[0, 1], node_of=self.node_of)

    def test_imbalance_with_full_reach_fires_constraint_c(self):
        # both groups reach all four nodes, but group 0 hoards three
        # slots while group 1 gets one (counts differ by more than one)
        with pytest.raises(ValidationError, match=r"constraint \(c\)"):
            check_aggregator_distribution(
                groups=[[0, 2, 4, 6], [1, 3, 5, 7]],
                assignment=[[0, 2, 4], [7]],
                agg_nodes=[0, 1, 2, 3], node_of=self.node_of)

    def test_non_member_aggregator_fires(self):
        with pytest.raises(ValidationError, match="not one of its members"):
            check_aggregator_distribution(
                groups=[[0, 1], [2, 3]], assignment=[[2], [3]],
                agg_nodes=[0, 1], node_of=self.node_of)


def iview_for(nprocs=4, per_rank=512, piece=128):
    extents = interleaved_extents(nprocs, per_rank, piece)
    plan = plan_partition(extents, 2)
    assert plan.uses_intermediate_view
    stride = nprocs * piece
    offs = np.arange(per_rank // piece, dtype=np.int64) * stride
    lens = np.full(per_rank // piece, piece, dtype=np.int64)
    return IntermediateView((offs, lens), plan.logical_prefix[0])


class TestIviewRoundtrip:
    def test_real_translator_passes(self):
        check_iview_roundtrip(iview_for())

    def test_byte_losing_translator_fires(self):
        class Lossy:
            """An iview whose translator drops the last physical piece."""

            def __init__(self, iview):
                self._iv = iview
                self.total = iview.total
                self.logical_base = iview.logical_base
                self.phys_segs = iview.phys_segs

            def translate(self, segs):
                offs, lens = self._iv.translate(segs)
                return ((offs[:-1], lens[:-1]) if offs.size > 1
                        else (offs, lens))

        with pytest.raises(ValidationError, match="iview_roundtrip"):
            check_iview_roundtrip(Lossy(iview_for()))


def drop_piece(plan, i):
    """``plan`` without piece ``i``, its round bounds kept consistent."""
    return plan._replace(
        offs=np.delete(plan.offs, i), lens=np.delete(plan.lens, i),
        aggs=np.delete(plan.aggs, i), rounds=np.delete(plan.rounds, i),
        bounds=[b - (b > i) for b in plan.bounds])


class TestExchangePlan:
    def segs(self):
        offs = np.array([0, 512, 1024], dtype=np.int64)
        lens = np.array([256, 256, 256], dtype=np.int64)
        return offs, lens

    def plan(self, segs):
        starts = np.array([0, 768], dtype=np.int64)
        ends = np.array([768, 2048], dtype=np.int64)
        return plan_rounds(segs, starts, ends, cb=256)

    def test_real_plan_passes(self):
        segs = self.segs()
        plan = self.plan(segs)
        ntimes = int(plan.rounds.max()) + 1
        check_exchange_plan(segs, plan, ntimes)

    def test_lost_piece_fires(self):
        segs = self.segs()
        plan = self.plan(segs)
        ntimes = 8
        # the last piece bound for aggregator 0
        broken = drop_piece(plan, int(np.flatnonzero(plan.aggs == 0)[-1]))
        with pytest.raises(ValidationError, match="created or lost|empty round plan"):
            check_exchange_plan(segs, broken, ntimes)

    def test_round_out_of_range_fires(self):
        segs = self.segs()
        plan = self.plan(segs)
        with pytest.raises(ValidationError, match="targets round"):
            check_exchange_plan(segs, plan, ntimes=0 + 0)

    def test_unsorted_pieces_fire(self):
        segs = self.segs()
        plan = self.plan(segs)
        order = np.arange(plan.offs.size)[::-1]
        broken = plan._replace(offs=plan.offs[order], lens=plan.lens[order],
                               aggs=plan.aggs[order],
                               rounds=plan.rounds[order])
        with pytest.raises(ValidationError, match="not sorted"):
            check_exchange_plan(segs, broken, ntimes=8)

    def test_stale_bounds_fire(self):
        segs = self.segs()
        plan = self.plan(segs)
        broken = plan._replace(bounds=[0] * (len(plan.bounds) - 1)
                               + [plan.offs.size])
        with pytest.raises(ValidationError, match="bounds"):
            check_exchange_plan(segs, broken, ntimes=8)


class TestRoundConservation:
    def test_balanced_round_passes(self):
        check_round_conservation(4096, 4096, 4096, rnd=0)

    def test_short_receive_fires(self):
        with pytest.raises(ValidationError, match="arrived"):
            check_round_conservation(4096, 4000, 4000, rnd=1)

    def test_short_write_fires(self):
        with pytest.raises(ValidationError, match="merged"):
            check_round_conservation(4096, 4096, 100, rnd=2)
