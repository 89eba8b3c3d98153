"""Hot-path equivalence and determinism regression tests.

Two families:

1. Property-style checks that the vectorized two-phase helpers
   (:func:`plan_rounds` + :func:`_send_lists_from_plan`,
   :func:`extract_data` / :func:`place_data`, :func:`merge_pieces`)
   agree with the per-round / slice-loop reference implementations kept
   here on seeded and Hypothesis-drawn fragmented access patterns —
   including empty ranks, single-byte segments and segments straddling
   collective-buffer windows and file domains.

2. A determinism regression test asserting the smoke-scale hot-path
   configs still reproduce the virtual-time results recorded in
   ``benchmarks/ref_hotpath.json`` before the engine optimizations
   landed: bit-identical bandwidths, elapsed times, effect/message
   counts and verified file hashes.
"""

from __future__ import annotations

import json
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatypes.flatten import Segments, intersect_range
from repro.datatypes.packing import dense_starts
from repro.harness.hotpath import CONFIGS, run_config
from repro.mpiio.two_phase import (_send_lists_from_plan, data_positions,
                                   extract_data, merge_pieces, place_data,
                                   plan_rounds)
from repro.validate.invariants import check_exchange_plan

REF = (pathlib.Path(__file__).resolve().parents[1]
       / "benchmarks" / "ref_hotpath.json")


def _send_lists_for_round(segs: Segments, aggs: list[int],
                          starts: np.ndarray, ends: np.ndarray,
                          rnd: int, cb: int) -> dict[int, Segments]:
    """Per-round reference for :func:`plan_rounds`: my non-empty
    intersections with each aggregator's round window.

    Only the domains overlapping my overall extent are inspected.
    """
    offs, lens = segs
    if offs.size == 0:
        return {}
    my_lo = int(offs[0])
    my_hi = int(offs[-1] + lens[-1])
    a_first = int(np.searchsorted(ends, my_lo, side="right"))
    a_last = int(np.searchsorted(starts, my_hi, side="left"))
    out: dict[int, Segments] = {}
    for a in range(a_first, min(a_last, len(aggs))):
        w_lo = int(starts[a]) + rnd * cb
        w_hi = min(int(ends[a]), w_lo + cb)
        sub = intersect_range(segs, w_lo, w_hi)
        if sub[0].size:
            out[a] = sub
    return out


def _extract_data_reference(starts: np.ndarray, sub_lens: np.ndarray,
                            data: np.ndarray) -> np.ndarray:
    """Slice-loop reference for :func:`extract_data`."""
    pieces = [data[s:s + l] for s, l in zip(starts.tolist(), sub_lens.tolist())]
    return np.concatenate(pieces)


def _place_data_reference(starts: np.ndarray, sub_lens: np.ndarray,
                          out: np.ndarray, incoming: np.ndarray) -> None:
    """Slice-loop reference for :func:`place_data`."""
    pos = 0
    for s, l in zip(starts.tolist(), sub_lens.tolist()):
        out[s:s + l] = incoming[pos:pos + l]
        pos += l


def _merge_reorder_reference(cat: np.ndarray, src_start: np.ndarray,
                             sorted_lens: np.ndarray) -> np.ndarray:
    """Chunk-loop reference for the reorder inside :func:`merge_pieces`."""
    chunks = [cat[s:s + l]
              for s, l in zip(src_start.tolist(), sorted_lens.tolist())]
    return np.concatenate(chunks) if chunks else np.empty(0, np.uint8)


def random_segments(rng: np.random.Generator, nsegs: int,
                    max_len: int, lo: int = 0) -> tuple:
    """Sorted, non-overlapping segments with random gaps.

    ``max_len=1`` degenerates to single-byte segments; gaps of zero make
    adjacent (coalescible) segments common.
    """
    if nsegs == 0:
        return (np.empty(0, np.int64), np.empty(0, np.int64))
    lens = rng.integers(1, max_len + 1, size=nsegs).astype(np.int64)
    gaps = rng.integers(0, 64, size=nsegs).astype(np.int64)
    offs = lo + np.cumsum(gaps + lens) - lens
    return offs, lens


def random_domains(rng: np.random.Generator, naggs: int,
                   span_hi: int) -> tuple:
    """Contiguous aggregator file domains covering ``[0, span_hi)``.

    Some domains come out empty (``starts[a] == ends[a]``), matching
    what :func:`~repro.mpiio.aggregation.partition_file_domains`
    produces when there are more aggregators than bytes to split.
    """
    cuts = np.sort(rng.integers(0, span_hi + 1, size=naggs - 1))
    bounds = np.concatenate(([0], cuts, [span_hi])).astype(np.int64)
    return bounds[:-1], bounds[1:]


PATTERNS = [
    # (seed, nsegs, max_len, naggs, cb) — cb small vs segment extents so
    # plenty of segments straddle round-window boundaries
    (0, 40, 1, 4, 128),        # single-byte segments
    (1, 200, 17, 8, 256),      # many tiny fragments
    (2, 12, 4096, 3, 512),     # large segments straddling many windows
    (3, 1, 9000, 5, 1024),     # one huge segment across all domains
    (4, 64, 300, 16, 300),     # window size commensurate with lengths
    (5, 0, 1, 4, 128),         # empty rank
]


@pytest.mark.parametrize("seed,nsegs,max_len,naggs,cb", PATTERNS)
def test_plan_rounds_matches_per_round_reference(seed, nsegs, max_len,
                                                 naggs, cb):
    rng = np.random.default_rng(seed)
    segs = random_segments(rng, nsegs, max_len)
    span_hi = int(segs[0][-1] + segs[1][-1]) + 17 if nsegs else 1024
    starts, ends = random_domains(rng, naggs, span_hi)
    aggs = list(range(naggs))

    assert_plan_matches_reference(segs, aggs, starts, ends, cb)


def assert_plan_matches_reference(segs, aggs, starts, ends, cb):
    """Every round's send lists out of the flat plan equal the per-round
    reference, key order included, and the plan passes the invariant."""
    plan = plan_rounds(segs, starts, ends, cb)
    nrounds = int(max((int(e - s) + cb - 1) // cb
                      for s, e in zip(starts, ends)))
    # one extra round past the last: both sides must agree it is empty
    for rnd in range(nrounds + 1):
        ref = _send_lists_for_round(segs, aggs, starts, ends, rnd, cb)
        fast = _send_lists_from_plan(plan, rnd)
        assert list(fast) == list(ref)
        for a in ref:
            np.testing.assert_array_equal(fast[a][0], ref[a][0])
            np.testing.assert_array_equal(fast[a][1], ref[a][1])
    check_exchange_plan(segs, plan, nrounds)


@st.composite
def plan_inputs(draw):
    """One rank's segments, the file domains, and ``cb``.

    Lengths mix single bytes, lengths around ``cb`` and runs of many
    windows, so pieces straddle windows and domains; an empty list is an
    idle rank.  Domains tile a range at least as wide as the rank's
    extent, cut at points drawn from a small pool, so repeated cuts make
    empty domains.
    """
    cb = draw(st.integers(1, 4096))
    length = st.one_of(st.just(1), st.integers(1, 3 * cb),
                       st.integers(1, 20 * cb))
    pairs = draw(st.lists(st.tuples(st.integers(0, cb), length),
                          max_size=12))
    lo = draw(st.integers(0, 2 * cb))
    gaps = np.array([g for g, _ in pairs], dtype=np.int64)
    lens = np.array([n for _, n in pairs], dtype=np.int64)
    offs = lo + np.cumsum(gaps + lens) - lens
    hi = int(offs[-1] + lens[-1]) if pairs else lo
    fd_min = lo - draw(st.integers(0, lo))
    fd_max = hi + draw(st.integers(0, 4 * cb))
    naggs = draw(st.integers(1, 16))
    pool = draw(st.lists(st.integers(fd_min, fd_max), min_size=1,
                         max_size=4))
    cuts = sorted(draw(st.lists(st.sampled_from(pool), min_size=naggs - 1,
                                max_size=naggs - 1)))
    bounds = np.array([fd_min, *cuts, fd_max], dtype=np.int64)
    return (offs, lens), bounds[:-1], bounds[1:], cb


@settings(max_examples=150)
@given(plan_inputs())
def test_plan_rounds_property_matches_per_round_reference(inputs):
    segs, starts, ends, cb = inputs
    assert_plan_matches_reference(segs, list(range(starts.size)), starts,
                                  ends, cb)


def test_plan_rounds_empty_rank_is_empty_plan():
    segs = (np.empty(0, np.int64), np.empty(0, np.int64))
    starts = np.array([0, 512], dtype=np.int64)
    ends = np.array([512, 1024], dtype=np.int64)
    plan = plan_rounds(segs, starts, ends, 128)
    assert plan.offs.size == plan.lens.size == 0
    assert plan.aggs.size == plan.rounds.size == 0
    assert _send_lists_from_plan(plan, 0) == {}


def test_plan_rounds_memory_is_four_arrays():
    """8,192 pieces over 1,024 domains keep four int64 arrays (256 KiB)
    plus the round bounds; per-domain arrays kept about 632 KiB."""
    ndom, per_dom = 1024, 8192
    offs = np.arange(0, ndom * per_dom, 1024, dtype=np.int64)
    lens = np.full(offs.size, 512, dtype=np.int64)
    starts = np.arange(0, ndom * per_dom, per_dom, dtype=np.int64)
    ends = starts + per_dom
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        plan = plan_rounds((offs, lens), starts, ends, 2048)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert plan.offs.size == 8192
    assert kept <= 320 * 1024, f"plan keeps {kept / 1024:.0f} KiB"


# shapes for the copy kernel: lengths shared by many segments move by
# row gather, rare ones by slice loop — both must match the reference
COPY_PATTERNS = [
    (10, 64, 8),       # few distinct lengths, many segments each
    (11, 500, 1),      # single-byte segments: one length
    (12, 4, 100),      # too few segments to batch
    (13, 16, 4096),    # many distinct lengths: the slice loop
]


@pytest.mark.parametrize("seed,nsegs,max_len", COPY_PATTERNS)
def test_extract_place_match_reference(seed, nsegs, max_len):
    rng = np.random.default_rng(seed)
    segs = random_segments(rng, nsegs, max_len)
    offs, lens = segs
    total = int(lens.sum())
    prefix = dense_starts(lens)
    data = rng.integers(0, 256, size=total, dtype=np.uint8)

    # a window clipping roughly the middle half, so some boundary
    # segments are split sub-segments of their parents
    lo = int(offs[0] + (offs[-1] - offs[0]) // 4)
    hi = int(offs[-1] + lens[-1] - (offs[-1] - offs[0]) // 4)
    for w_lo, w_hi in [(lo, hi), (int(offs[0]), int(offs[-1] + lens[-1]))]:
        sub = intersect_range(segs, w_lo, w_hi)
        got = extract_data(segs, prefix, data, sub)
        starts = data_positions(offs, prefix, sub[0])
        want = (_extract_data_reference(starts, sub[1], data)
                if sub[0].size else np.empty(0, np.uint8))
        np.testing.assert_array_equal(got, want)

        out_fast = np.zeros(total, dtype=np.uint8)
        out_ref = np.zeros(total, dtype=np.uint8)
        place_data(segs, prefix, out_fast, sub, got)
        if sub[0].size:
            _place_data_reference(starts, sub[1], out_ref, want)
        np.testing.assert_array_equal(out_fast, out_ref)

        # round trip: place(extract(x)) restores the window's bytes
        mask = np.zeros(total, dtype=bool)
        if sub[0].size:
            for s, l in zip(starts.tolist(), sub[1].tolist()):
                mask[s:s + l] = True
        np.testing.assert_array_equal(out_fast[mask], data[mask])


@pytest.mark.parametrize("seed,npieces,nsegs,max_len", [
    (20, 5, 30, 4),       # many tiny segments -> row gather
    (21, 3, 2, 2000),     # few large segments -> slice loop
    (22, 4, 1, 1),        # single-byte pieces
])
def test_merge_pieces_matches_reference(seed, npieces, nsegs, max_len):
    rng = np.random.default_rng(seed)
    # carve disjoint per-piece offset bands so pieces interleave by
    # offset but never overlap
    pieces = []
    sparse: dict[int, int] = {}
    for p in range(npieces):
        offs, lens = random_segments(rng, nsegs, max_len,
                                     lo=p * 1_000_000)
        total = int(lens.sum())
        data = rng.integers(0, 256, size=total, dtype=np.uint8)
        pieces.append(((offs, lens), data))
        pos = 0
        for o, l in zip(offs.tolist(), lens.tolist()):
            for k in range(l):
                sparse[o + k] = int(data[pos + k])
            pos += l
    rng.shuffle(pieces)

    (w_offs, w_lens), merged = merge_pieces(pieces, verified=True)
    # independent oracle: replay every byte through a sparse map
    expect = []
    for o, l in zip(w_offs.tolist(), w_lens.tolist()):
        expect.extend(sparse[o + k] for k in range(l))
    np.testing.assert_array_equal(merged,
                                  np.array(expect, dtype=np.uint8))

    # and the reference reorder agrees with whichever path ran
    all_offs = np.concatenate([p[0][0] for p in pieces])
    all_lens = np.concatenate([p[0][1] for p in pieces])
    order = np.argsort(all_offs, kind="stable")
    cat = np.concatenate([p[1] for p in pieces])
    ref = _merge_reorder_reference(cat, dense_starts(all_lens)[order],
                                   all_lens[order])
    np.testing.assert_array_equal(merged, ref)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_hotpath_configs_reproduce_pre_optimization_results(name):
    """Every virtual-time metric must match the recorded pre-PR values."""
    ref = json.loads(REF.read_text())["configs"][name + "_smoke"]
    got = run_config(name, smoke=True)
    for field, want in ref.items():
        if field == "baseline_wall_s":
            continue
        assert got[field] == want, (
            f"{name}: {field} diverged from the pre-optimization "
            f"reference ({got[field]!r} != {want!r})")
