"""Unit tests of the byte-level file-content oracles (layer 1)."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.validate import (ORACLE_VERSION, OracleDiff, ShadowFile,
                            sequential_golden)


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
