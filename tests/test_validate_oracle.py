"""Unit tests of the byte-level file-content oracles (layer 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.validate import (ORACLE_VERSION, OracleDiff, ShadowFile,
                            sequential_golden)
from repro.validate import oracle


def segs(*pairs):
    offs = np.array([o for o, _ in pairs], dtype=np.int64)
    lens = np.array([l for _, l in pairs], dtype=np.int64)
    return offs, lens


class TestSequentialGolden:
    def test_applies_writes_in_order(self):
        w1 = (segs((0, 4)), np.arange(4, dtype=np.uint8) + 1)
        w2 = (segs((2, 4)), np.full(4, 9, dtype=np.uint8))
        out = sequential_golden(8, [w1, w2])
        np.testing.assert_array_equal(out, [1, 2, 9, 9, 9, 9, 0, 0])

    def test_scattered_segments_follow_data_order(self):
        w = (segs((6, 2), (0, 2)), np.array([1, 2, 3, 4], dtype=np.uint8))
        out = sequential_golden(8, [w])
        np.testing.assert_array_equal(out, [3, 4, 0, 0, 0, 0, 1, 2])

    def test_rejects_mismatched_data_size(self):
        with pytest.raises(ValidationError, match="golden_writer"):
            sequential_golden(8, [(segs((0, 4)),
                                   np.zeros(3, dtype=np.uint8))])


class TestShadowFile:
    def test_verified_bytes_and_diff_clean(self):
        sh = ShadowFile("f", verified=True)
        sh.record(segs((0, 3)), np.array([7, 8, 9], dtype=np.uint8))
        sh.record(segs((5, 2)), np.array([1, 2], dtype=np.uint8))
        assert sh.size == 7
        np.testing.assert_array_equal(sh.bytes, [7, 8, 9, 0, 0, 1, 2])
        assert sh.diff_bytes(sh.bytes) is None

    def test_diff_reports_first_divergence(self):
        sh = ShadowFile("f", verified=True)
        sh.record(segs((0, 4)), np.array([1, 2, 3, 4], dtype=np.uint8))
        actual = np.array([1, 2, 9, 4], dtype=np.uint8)
        diff = sh.diff_bytes(actual)
        assert diff is not None
        assert (diff.kind, diff.offset, diff.nbytes) == ("bytes", 2, 1)
        with pytest.raises(ValidationError, match="file_oracle"):
            diff.raise_()

    def test_short_actual_compares_as_zeros(self):
        sh = ShadowFile("f", verified=True)
        sh.record(segs((0, 2), (4, 2)),
                  np.array([5, 6, 0, 0], dtype=np.uint8))
        # the fs never materialized the trailing zero bytes
        assert sh.diff_bytes(np.array([5, 6], dtype=np.uint8)) is None

    def test_diff_counts_mismatches_past_a_short_store(self):
        sh = ShadowFile("f", verified=True)
        data = np.arange(1, 13, dtype=np.uint8)  # no zero byte anywhere
        sh.record(segs((0, 12)), data)
        actual = data[:8].copy()
        actual[3] = 0xEE
        actual[5] = 0xEE
        diff = sh.diff_bytes(actual)
        # two wrong bytes, plus the four nonzero ones the store lacks
        assert (diff.offset, diff.nbytes) == (3, 6)
        assert diff.expected == list(range(1, 12))
        assert diff.got == [1, 2, 3, 0xEE, 5, 0xEE, 7, 8, 0, 0, 0]
        # only the missing tail differs: the first offset is its start
        diff = sh.diff_bytes(data[:8])
        assert (diff.offset, diff.nbytes) == (8, 4)
        assert diff.got == [5, 6, 7, 8, 0, 0, 0, 0]

    def test_diff_spans_comparison_blocks(self):
        from repro.validate.oracle import _DIFF_BLOCK

        n = 2 * _DIFF_BLOCK + 5
        data = np.full(n, 7, dtype=np.uint8)
        sh = ShadowFile("f", verified=True)
        sh.record(segs((0, n)), data)
        actual = data.copy()
        actual[[_DIFF_BLOCK + 1, 2 * _DIFF_BLOCK + 4]] = 0
        diff = sh.diff_bytes(actual)
        assert (diff.offset, diff.nbytes) == (_DIFF_BLOCK + 1, 2)

    def test_verified_record_requires_data(self):
        sh = ShadowFile("f", verified=True)
        with pytest.raises(ValidationError, match="without data"):
            sh.record(segs((0, 4)), None)

    def test_model_mode_tracks_extents(self):
        sh = ShadowFile("f", verified=False)
        sh.record(segs((0, 4)), None)
        sh.record(segs((4, 4)), None)
        offs, lens = sh.extents
        np.testing.assert_array_equal(offs, [0])
        np.testing.assert_array_equal(lens, [8])
        assert sh.diff_extents([0], [8]) is None
        diff = sh.diff_extents([0], [6])
        assert diff is not None and diff.kind == "extents"

    def test_expected_read_returns_recorded_bytes(self):
        sh = ShadowFile("f", verified=True)
        sh.record(segs((2, 3)), np.array([4, 5, 6], dtype=np.uint8))
        out = sh.expected_read(segs((0, 4)))
        np.testing.assert_array_equal(out, [0, 0, 4, 5])

    def test_expected_read_past_end_does_not_grow_the_shadow(self):
        sh = ShadowFile("f", verified=True)
        sh.record(segs((0, 4)), np.array([1, 2, 3, 4], dtype=np.uint8))
        capacity = sh._store._buf.size
        out = sh.expected_read(segs((2, 2), (200 << 20, 3)))
        np.testing.assert_array_equal(out, [3, 4, 0, 0, 0])
        assert sh._store._buf.size == capacity and sh.size == 4

    def test_oracle_diff_round_trips_and_describes(self):
        d = OracleDiff(file="f", kind="bytes", offset=3, nbytes=2,
                       expected=[1, 2], got=[1, 9])
        assert d.to_dict()["offset"] == 3
        assert "offset 3" in d.describe() and "'f'" in d.describe()

    def test_oracle_version_is_an_int(self):
        assert isinstance(ORACLE_VERSION, int) and ORACLE_VERSION >= 1


# -- happens-before tracking against a byte-set reference ---------------

@st.composite
def _accesses(draw):
    """Up to 5 disjoint (offset, length) segments in bytes 0-255, in any
    order; zero lengths and adjacent segments are allowed."""
    out, end = [], draw(st.integers(0, 100))
    for gap, length in draw(st.lists(st.tuples(st.integers(0, 16),
                                               st.integers(0, 14)),
                                     max_size=5)):
        out.append((end + gap, length))
        end += gap + length
    return draw(st.permutations(out))


_ops = st.lists(st.one_of(
    st.tuples(st.just("record"), _accesses()),
    st.tuples(st.just("read"), _accesses()),
    st.tuples(st.just("complete"), st.integers(0, 6)),
    st.tuples(st.just("complete_all"), st.none())), max_size=30)


def _byte_set(access):
    return {b for o, l in access for b in range(o, o + l)}


@settings(deadline=None)
@given(verified=st.booleans(), ops=_ops)
def test_shadow_matches_byte_set_reference(verified, ops):
    sh = ShadowFile("f", verified=verified)
    pending: dict[int, set] = {}   # token -> bytes, in token order
    unordered: set = set()
    written: set = set()
    content = np.zeros(512, dtype=np.uint8)
    size = 0
    for step, (op, arg) in enumerate(ops):
        if op == "record":
            mine = _byte_set(arg)
            for tok in sorted(pending):
                if pending[tok] & mine:
                    unordered |= pending[tok] | mine
                    break
            total = sum(l for _, l in arg)
            data = (np.arange(total, dtype=np.int64) * 7 + step + 1
                    ).astype(np.uint8)
            pos = 0
            for o, l in arg:
                content[o:o + l] = data[pos:pos + l]
                pos += l
                if l:
                    size = max(size, o + l)
            token = sh.record(segs(*arg), data if verified else None)
            assert token not in pending
            pending[token] = mine
            written |= mine
        elif op == "read":
            want = not (_byte_set(arg) & (set().union(*pending.values())
                                          | unordered))
            assert sh.checkable_read(segs(*arg)) == want
        elif op == "complete":
            sh.complete(arg)
            pending.pop(arg, None)
        else:
            sh.complete_all()
            pending.clear()
        assert sh.pending_writes == len(pending)
    offs, lens = sh.extents
    assert _byte_set(zip(offs.tolist(), lens.tolist())) == written
    assert (np.diff(offs) > 0).all() and (offs[1:] > (offs + lens)[:-1]).all()
    assert sh.covered_bytes == len(written)
    assert sh.size == size
    if verified:
        np.testing.assert_array_equal(sh.bytes, content[:size])


def test_record_tests_the_pending_union_not_every_pending_write(monkeypatch):
    calls = 0
    real = oracle._segments_overlap

    def counting(a, b):
        nonlocal calls
        calls += 1
        return real(a, b)

    monkeypatch.setattr(oracle, "_segments_overlap", counting)
    sh = ShadowFile("f", verified=False)
    for i in range(200):
        # pairwise disjoint and interleaved: nothing races, nothing retires
        sh.record(segs((i * 8, 4), (4000 + i * 8, 4)), None)
    assert sh.pending_writes == 200
    assert sh.covered_bytes == 200 * 8
    # one test per record against the union; a per-write walk is 19,900
    assert calls < 400


def test_only_the_first_racing_pending_write_becomes_unordered():
    sh = ShadowFile("f", verified=False)
    sh.record(segs((0, 4)), None)
    second = sh.record(segs((8, 4)), None)
    # races both pending writes; the first in token order is the racer
    sh.record(segs((2, 8)), None)
    sh.complete(second)
    # bytes 10-11 belong to the retired second write alone
    assert sh.checkable_read(segs((10, 2)))
    assert not sh.checkable_read(segs((9, 2)))
    sh.complete_all()
    assert not sh.checkable_read(segs((0, 1)))
    assert sh.checkable_read(segs((10, 2)))
