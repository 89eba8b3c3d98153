"""Property-based tests (hypothesis) for segment algebra and datatypes."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatypes import (BYTE, Contiguous, Indexed, Subarray, Vector,
                             coalesce, gather_segments, scatter_segments,
                             validate_segments)
from repro.datatypes.flatten import intersect_range, total_bytes
from repro.datatypes.packing import _MIN_ROWS, copy_segments

# -- strategies -----------------------------------------------------------

segment_lists = st.lists(
    st.tuples(st.integers(0, 500), st.integers(0, 40)), min_size=0, max_size=30
)
#: coalesce inputs: arbitrary order, and sorted by offset so coalesce
#: also runs its no-sort branch
coalesce_inputs = segment_lists | segment_lists.map(sorted)


def covered_set(offsets, lengths):
    s = set()
    for o, l in zip(offsets.tolist(), lengths.tolist()):
        s.update(range(o, o + l))
    return s


# -- coalesce -------------------------------------------------------------

@given(coalesce_inputs)
def test_coalesce_output_is_canonical(raw):
    offs = [o for o, _ in raw]
    lens = [l for _, l in raw]
    o, l = coalesce(offs, lens)
    validate_segments(o, l, allow_adjacent=False)


@given(coalesce_inputs)
def test_coalesce_preserves_covered_bytes(raw):
    offs = np.array([o for o, _ in raw], dtype=np.int64)
    lens = np.array([l for _, l in raw], dtype=np.int64)
    o, l = coalesce(offs, lens)
    assert covered_set(o, l) == covered_set(offs, lens)


@given(coalesce_inputs)
def test_coalesce_idempotent(raw):
    o1, l1 = coalesce([o for o, _ in raw], [l for _, l in raw])
    o2, l2 = coalesce(o1, l1)
    np.testing.assert_array_equal(o1, o2)
    np.testing.assert_array_equal(l1, l2)


# -- intersect_range ------------------------------------------------------

@given(segment_lists, st.integers(0, 600), st.integers(0, 600))
def test_intersect_is_subset_and_exact(raw, a, b):
    lo, hi = min(a, b), max(a, b)
    o0, l0 = coalesce([o for o, _ in raw], [l for _, l in raw])
    o, l = intersect_range((o0, l0), lo, hi)
    validate_segments(o, l)
    full = covered_set(o0, l0)
    assert covered_set(o, l) == {x for x in full if lo <= x < hi}


@given(segment_lists, st.lists(st.integers(0, 600), min_size=2, max_size=6))
def test_disjoint_ranges_partition_segments(raw, cuts):
    """Splitting a segment list at cut points loses and duplicates nothing."""
    o0, l0 = coalesce([o for o, _ in raw], [l for _, l in raw])
    bounds = sorted(set(cuts) | {0, 1000})
    pieces = [intersect_range((o0, l0), lo, hi)
              for lo, hi in zip(bounds[:-1], bounds[1:])]
    union = set()
    total = 0
    for o, l in pieces:
        cov = covered_set(o, l)
        assert union.isdisjoint(cov)
        union |= cov
        total += total_bytes((o, l))
    assert union == covered_set(o0, l0)
    assert total == total_bytes((o0, l0))


# -- datatype invariants ---------------------------------------------------

@given(st.integers(0, 20), st.integers(0, 10), st.integers(-15, 15))
def test_vector_flattened_size_matches(count, blocklength, stride):
    if count > 0 and blocklength > 0 and abs(stride) < blocklength:
        stride = blocklength  # avoid overlapping typemaps (invalid in MPI too)
    t = Vector(count, blocklength, stride, BYTE)
    assert total_bytes(t.segments()) == t.size


@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 100)),
                min_size=0, max_size=10))
def test_indexed_size_invariant(blocks):
    # space displacements so blocks never overlap
    bls, disps, cursor = [], [], 0
    for bl, gap in blocks:
        disps.append(cursor + gap)
        bls.append(bl)
        cursor += gap + bl
    t = Indexed(bls, disps, BYTE)
    assert total_bytes(t.segments()) == t.size == sum(bls)


@settings(max_examples=60)
@given(st.data())
def test_subarray_matches_numpy_reference(data):
    ndim = data.draw(st.integers(1, 3))
    shape = tuple(data.draw(st.integers(1, 8)) for _ in range(ndim))
    subsizes, starts = [], []
    for n in shape:
        sub = data.draw(st.integers(0, n))
        start = data.draw(st.integers(0, n - sub))
        subsizes.append(sub)
        starts.append(start)
    t = Subarray(shape, tuple(subsizes), tuple(starts), BYTE)
    buf = np.arange(np.prod(shape), dtype=np.uint8)
    arr = buf.reshape(shape)
    sl = tuple(slice(s, s + z) for s, z in zip(starts, subsizes))
    expected = arr[sl].ravel()
    o, l = t.segments()
    np.testing.assert_array_equal(gather_segments(buf, o, l), expected)


@settings(max_examples=60)
@given(st.integers(1, 50), st.integers(1, 20), st.data())
def test_gather_scatter_roundtrip(nsegs, maxlen, data):
    # build disjoint segments
    offs, cursor = [], 0
    lens = []
    for _ in range(nsegs):
        gap = data.draw(st.integers(0, 10))
        ln = data.draw(st.integers(1, maxlen))
        offs.append(cursor + gap)
        lens.append(ln)
        cursor += gap + ln
    offs = np.array(offs, dtype=np.int64)
    lens = np.array(lens, dtype=np.int64)
    rng = np.random.default_rng(0)
    buf = rng.integers(0, 256, size=cursor + 5, dtype=np.uint8)
    packed = gather_segments(buf, offs, lens)
    out = np.zeros_like(buf)
    scatter_segments(out, offs, lens, packed)
    packed2 = gather_segments(out, offs, lens)
    np.testing.assert_array_equal(packed, packed2)


# -- the copy kernel ------------------------------------------------------

#: how segment lengths are drawn: each mode steers the kernel into a
#: different mix of row gathers and slice-loop fallbacks
_LENGTH_MODES = {
    "tiny": st.integers(0, 1),                # zero-length and single-byte
    "equal": None,                            # one shared length
    "few": st.sampled_from([0, 1, 7, 40]),    # a few lengths, many each
    "distinct": st.integers(0, 300),          # mostly rare: slice loop
}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_copy_segments_equals_slice_loop(data):
    mode = data.draw(st.sampled_from(sorted(_LENGTH_MODES)))
    nsegs = data.draw(st.sampled_from([1, 2, _MIN_ROWS - 1, _MIN_ROWS,
                                       3 * _MIN_ROWS, 60]))
    if mode == "equal":
        width = data.draw(st.integers(0, 64))
        lens = [width] * nsegs
    else:
        lens = data.draw(st.lists(_LENGTH_MODES[mode], min_size=nsegs,
                                  max_size=nsegs))
    lens = np.array(lens, dtype=np.int64)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

    # source: a view of a random buffer, maybe strided or reversed; its
    # segments lie back to back or anywhere (overlapping is allowed),
    # and the first one ends exactly at the buffer end
    step = data.draw(st.sampled_from([1, 2, -1]))
    packed_src = data.draw(st.booleans())
    size = (int(lens.sum()) if packed_src else int(lens.max())
            + data.draw(st.integers(0, 200)))
    base = rng.integers(0, 256, size=size * abs(step), dtype=np.uint8)
    src = base[::step]
    assert src.size == size
    if packed_src:
        src_starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    else:
        src_starts = rng.integers(0, size - lens + 1)
        src_starts[0] = size - lens[0]

    # destinations: disjoint, in segment order, shuffled (as
    # merge_pieces uses it) or shuffled between fixed first and last
    # ones; back to back or with gaps; the last one placed ends at the
    # buffer end or a few bytes short of it
    order = np.arange(nsegs)
    shuffle = data.draw(st.sampled_from(["none", "all", "inner"]))
    if shuffle == "all":
        order = rng.permutation(nsegs)
    elif shuffle == "inner" and nsegs > 2:
        order[1:-1] = rng.permutation(order[1:-1])
    gaps = (rng.integers(0, 4, size=nsegs) if data.draw(st.booleans())
            else np.zeros(nsegs, dtype=np.int64))
    dst_starts = np.zeros(nsegs, dtype=np.int64)
    cursor = 0
    for i in order:
        cursor += int(gaps[i])
        dst_starts[i] = cursor
        cursor += int(lens[i])
    pad = data.draw(st.sampled_from([0, 0, 3]))
    dst = rng.integers(0, 256, size=cursor + pad, dtype=np.uint8)
    want = dst.copy()
    for d, s_, n in zip(dst_starts.tolist(), src_starts.tolist(),
                        lens.tolist()):
        want[d:d + n] = src[s_:s_ + n]

    copy_segments(dst, dst_starts, src, src_starts, lens)
    np.testing.assert_array_equal(dst, want)


def test_copy_segments_rows_permuted_between_fixed_ends():
    # first and last destinations sit where back-to-back rows would,
    # the ones between are permuted: the rows must not be taken as one
    # in-order block
    width, nsegs = 5, 3 * _MIN_ROWS
    order = np.arange(nsegs)
    order[1:-1] = order[1:-1][::-1]
    dst_starts = order * width
    src = np.arange(nsegs * width, dtype=np.uint8)
    src_starts = np.arange(nsegs) * width
    dst = np.zeros(nsegs * width, dtype=np.uint8)
    copy_segments(dst, dst_starts, src, src_starts, np.full(nsegs, width))
    want = np.zeros_like(dst)
    for d, s_ in zip(dst_starts.tolist(), src_starts.tolist()):
        want[d:d + width] = src[s_:s_ + width]
    np.testing.assert_array_equal(dst, want)
