"""Runtime invariant checks for the partitioned-collective protocol.

Pure functions over protocol state, each raising
:class:`~repro.errors.ValidationError` on violation.  They encode the
contracts the paper's correctness argument rests on:

* a :class:`~repro.parcoll.partition.PartitionPlan` must *tile* the
  accessed file: every rank grouped, File Areas pairwise disjoint, and
  (in intermediate mode) the logical FAs covering [0, total) exactly
  once (:func:`check_partition_plan`);
* an aggregator distribution must satisfy Section 4.2's three placement
  constraints (:func:`check_aggregator_distribution`);
* an intermediate-view translation must round-trip logical↔physical
  without creating or losing bytes (:func:`check_iview_roundtrip`);
* the vectorized two-phase round plan must cover each access byte
  exactly once across all rounds (:func:`check_exchange_plan`), and each
  aggregator round must conserve the bytes the alltoall announced
  (:func:`check_round_conservation`).

The checks are deliberately *independent* re-derivations — they never
call back into the code they validate.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.datatypes.flatten import Segments, coalesce
from repro.errors import ValidationError


def _fail(check: str, message: str, **detail) -> None:
    raise ValidationError(check, message, detail=detail or None)


def _same_segments(a: Segments, b: Segments) -> bool:
    return (a[0].size == b[0].size and np.array_equal(a[0], b[0])
            and np.array_equal(a[1], b[1]))


# ---------------------------------------------------------------------------
# File Area partitioning (Section 4.1)
# ---------------------------------------------------------------------------
def check_partition_plan(plan, extents: Sequence[tuple[int, int, int]]) -> None:
    """FA partitions must tile the accessed file exactly once.

    ``extents`` is the allgathered ``(lo, hi, nbytes)`` list the plan was
    computed from (``lo = -1`` marks an idle rank).
    """
    size = len(extents)
    check = "fa_partition"
    if len(plan.group_of) != size:
        _fail(check, f"plan covers {len(plan.group_of)} ranks, "
                     f"extents describe {size}")
    gids = set(plan.group_of)
    if gids != set(range(plan.ngroups)):
        _fail(check, f"group ids {sorted(gids)} are not exactly "
                     f"0..{plan.ngroups - 1}")
    active = [r for r in range(size)
              if extents[r][0] >= 0 and extents[r][2] > 0]
    if not active:
        return
    if plan.uses_intermediate_view:
        if plan.logical_prefix is None:
            _fail(check, "intermediate plan without logical prefixes")
        prefix = plan.logical_prefix
        total = sum(extents[r][2] for r in range(size))
        # every group's logical FA must hull its members
        for g, (lo, hi) in enumerate(plan.fa_bounds):
            members = [r for r in active if plan.group_of[r] == g]
            if not members:
                _fail(check, f"group {g} has no active members but a "
                             f"File Area [{lo}, {hi})")
            want_lo = min(prefix[r] for r in members)
            want_hi = max(prefix[r] + extents[r][2] for r in members)
            if (lo, hi) != (want_lo, want_hi):
                _fail(check, f"group {g} logical FA [{lo}, {hi}) is not "
                             f"the hull [{want_lo}, {want_hi}) of its "
                             "members", group=g)
        bounds = sorted(plan.fa_bounds)
        if bounds[0][0] != 0 or bounds[-1][1] != total:
            _fail(check, f"logical FAs {bounds} do not span [0, {total})")
        for (lo_a, hi_a), (lo_b, hi_b) in zip(bounds, bounds[1:]):
            if hi_a != lo_b:
                _fail(check, f"logical FAs leave a gap or overlap at "
                             f"[{hi_a}, {lo_b})")
        return
    # direct mode: physical FAs hull their members and stay disjoint
    for g, (lo, hi) in enumerate(plan.fa_bounds):
        members = [r for r in active if plan.group_of[r] == g]
        if not members:
            continue
        want_lo = min(extents[r][0] for r in members)
        want_hi = max(extents[r][1] for r in members)
        if (lo, hi) != (want_lo, want_hi):
            _fail(check, f"group {g} FA [{lo}, {hi}) is not the hull "
                         f"[{want_lo}, {want_hi}) of its members", group=g)
    occupied = sorted((lo, hi) for g, (lo, hi) in enumerate(plan.fa_bounds)
                      if any(plan.group_of[r] == g for r in active))
    for (lo_a, hi_a), (lo_b, hi_b) in zip(occupied, occupied[1:]):
        if hi_a > lo_b:
            _fail(check, f"File Areas overlap: [{lo_a}, {hi_a}) and "
                         f"[{lo_b}, {hi_b}) — a byte would belong to two "
                         "subgroups")


# ---------------------------------------------------------------------------
# Aggregator distribution (Section 4.2)
# ---------------------------------------------------------------------------
def check_aggregator_distribution(groups: Sequence[Sequence[int]],
                                  assignment: Sequence[Sequence[int]],
                                  agg_nodes: Sequence[int],
                                  node_of: Callable[[int], int]) -> None:
    """The paper's three placement constraints.

    (a) every subgroup holds at least one aggregator;
    (b) a physical node aggregates for at most one subgroup — except
        through the documented fallback (requirement (a) overrides (b)):
        a subgroup the round-robin left empty-handed takes its
        lowest-ranked member, whose node may already serve another
        subgroup.  A fallback assignment is exactly one aggregator equal
        to the subgroup's minimum member, so at most one *non*-fallback-
        shaped subgroup may claim any node;
    (c) no aggregator node slot hosting members goes unassigned, and
        when every subgroup reaches every slot the per-group counts
        differ by at most one.
    """
    check = "aggregator_distribution"
    if len(groups) != len(assignment):
        _fail(check, f"{len(groups)} groups but {len(assignment)} "
                     "assignment lists")
    agg_node_set = set(agg_nodes)
    #: node -> subgroups with an aggregator there
    node_claims: dict[int, list[int]] = {}
    fallback_shaped = set()
    for g, (members, aggs) in enumerate(zip(groups, assignment)):
        if not aggs:
            _fail(check, f"subgroup {g} got no aggregator "
                         "(constraint (a))", group=g)
        mset = set(members)
        seen_nodes = set()
        for a in aggs:
            if a not in mset:
                _fail(check, f"aggregator rank {a} assigned to subgroup "
                             f"{g} is not one of its members", group=g)
            n = node_of(a)
            if n in seen_nodes:
                _fail(check, f"subgroup {g} holds two aggregators on "
                             f"node {n}", group=g, node=n)
            seen_nodes.add(n)
            node_claims.setdefault(n, []).append(g)
        if len(aggs) == 1 and aggs[0] == min(members):
            fallback_shaped.add(g)
    # (b): a node shared by two subgroups is legal only when all but
    # (at most) one of them look like requirement-(a) fallbacks
    for n, claimants in sorted(node_claims.items()):
        non_fb = [g for g in claimants if g not in fallback_shaped]
        if len(non_fb) > 1:
            _fail(check, f"node {n} aggregates for subgroups {non_fb[0]} "
                         f"and {non_fb[1]} (constraint (b))", node=n)
    # (c) part 1: a slot hosting members of any subgroup must be used
    hosting = set()
    for members in groups:
        for r in members:
            n = node_of(r)
            if n in agg_node_set:
                hosting.add(n)
    unused = hosting - set(node_claims)
    if unused:
        _fail(check, f"aggregator node slot(s) {sorted(unused)} host "
                     "subgroup members but serve no subgroup "
                     "(constraint (c))")
    # (c) part 2: with full reach, counts are balanced to within one
    reach_all = all(
        agg_node_set <= {node_of(r) for r in members} for members in groups)
    if reach_all and len(groups) > len(fallback_shaped):
        counts = [len(a) for g, a in enumerate(assignment)
                  if g not in fallback_shaped]
        if max(counts) - min(counts) > 1:
            _fail(check, f"aggregator counts {counts} differ by more "
                         "than one although every subgroup reaches every "
                         "slot (constraint (c))")


# ---------------------------------------------------------------------------
# Intermediate-view translation
# ---------------------------------------------------------------------------
def check_iview_roundtrip(iview) -> None:
    """Logical↔physical translation must conserve bytes and partition
    the physical access.

    Probes the translator with the full logical range and a split at an
    interior point: each piece must keep its byte count, and the pieces
    of any disjoint logical cover must reassemble to exactly the
    original physical segments.
    """
    check = "iview_roundtrip"
    total = iview.total
    if total == 0:
        return
    base = iview.logical_base
    phys = coalesce(*iview.phys_segs)

    def probe(lo: int, hi: int) -> Segments:
        seg = (np.array([base + lo], dtype=np.int64),
               np.array([hi - lo], dtype=np.int64))
        out = iview.translate(seg)
        got = int(out[1].sum()) if out[0].size else 0
        if got != hi - lo:
            _fail(check, f"translating logical [{lo}, {hi}) yielded "
                         f"{got} physical bytes, expected {hi - lo}",
                  lo=lo, hi=hi, got=got)
        return out

    full = probe(0, total)
    if not _same_segments(coalesce(*full), phys):
        _fail(check, "translating the full logical range does not "
                     "reproduce the physical segments")
    mid = total // 2
    if 0 < mid < total:
        left = probe(0, mid)
        right = probe(mid, total)
        joined = coalesce(np.concatenate([left[0], right[0]]),
                          np.concatenate([left[1], right[1]]))
        if not _same_segments(joined, phys):
            _fail(check, f"splitting the logical range at {mid} loses or "
                         "duplicates physical bytes")


# ---------------------------------------------------------------------------
# Two-phase exchange conservation
# ---------------------------------------------------------------------------
def check_exchange_plan(segs: Segments, plan, ntimes: int) -> None:
    """The vectorized round plan must cover the access exactly once.

    Every byte of ``segs`` appears in exactly one (aggregator, round)
    piece, every piece is non-empty, no piece targets a round beyond the
    agreed count, and the pieces are sorted by round, then aggregator,
    with ``plan.bounds`` delimiting the rounds (the send lists are slices
    of that order).
    """
    check = "exchange_plan"
    want = coalesce(*segs)
    offs, lens, aggs, rounds = plan.offs, plan.lens, plan.aggs, plan.rounds
    if not offs.size:
        if want[0].size:
            _fail(check, f"empty round plan for an access of "
                         f"{int(want[1].sum())} bytes")
        return
    if int(lens.min()) <= 0:
        _fail(check, "round plan contains an empty piece")
    if int(rounds.min()) < 0 or int(rounds.max()) >= ntimes:
        _fail(check, f"round plan targets round "
                     f"{int(rounds.max())} of an agreed {ntimes}")
    total = int(lens.sum())
    want_total = int(want[1].sum())
    if total != want_total:
        _fail(check, f"round plan moves {total} bytes for an access of "
                     f"{want_total} (bytes created or lost)")
    got = coalesce(offs, lens)
    if int(got[1].sum()) != want_total:
        _fail(check, "round plan pieces overlap: some byte is shipped "
                     "twice")
    if not _same_segments(got, want):
        _fail(check, "round plan pieces do not reassemble the access "
                     "segments")
    step = rounds[1:] - rounds[:-1]
    if (step < 0).any() or ((step == 0) & (aggs[1:] < aggs[:-1])).any():
        _fail(check, "round plan pieces are not sorted by round, then "
                     "aggregator")
    want_bounds = np.searchsorted(rounds, np.arange(len(plan.bounds)))
    if plan.bounds[-1] != offs.size or \
            not np.array_equal(want_bounds, plan.bounds):
        _fail(check, "round plan bounds do not delimit its rounds")


def check_round_conservation(announced: int, received: int,
                             written: int, rnd: int) -> None:
    """One aggregator round: alltoall counts == received == written."""
    check = "round_conservation"
    if received != announced:
        _fail(check, f"round {rnd}: alltoall announced {announced} "
                     f"bytes but {received} arrived", round=rnd)
    if written != received:
        _fail(check, f"round {rnd}: {received} bytes arrived but "
                     f"{written} were merged for the file write",
              round=rnd)
