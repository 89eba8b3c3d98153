"""Striping math and backing stores."""

import numpy as np
import pytest

from repro.errors import FileSystemError
from repro.lustre import ByteStore, ExtentTracker, StripeLayout
from repro.lustre.store import MAX_VERIFIED_BYTES


class TestStripeLayout:
    def test_ost_of_offset_round_robin(self):
        lay = StripeLayout(stripe_size=100, stripe_count=4, n_osts=8, start_ost=0)
        assert lay.ost_of_offset(0) == 0
        assert lay.ost_of_offset(99) == 0
        assert lay.ost_of_offset(100) == 1
        assert lay.ost_of_offset(399) == 3
        assert lay.ost_of_offset(400) == 0  # wraps at stripe_count

    def test_start_ost_shifts(self):
        lay = StripeLayout(stripe_size=100, stripe_count=4, n_osts=8, start_ost=6)
        assert lay.ost_of_offset(0) == 6
        assert lay.ost_of_offset(100) == 7
        assert lay.ost_of_offset(200) == 0  # modulo n_osts

    def test_chunks_split_at_boundaries(self):
        lay = StripeLayout(stripe_size=100, stripe_count=2, n_osts=4)
        offs, lens, osts = lay.chunks([50], [200])
        assert offs.tolist() == [50, 100, 200]
        assert lens.tolist() == [50, 100, 50]
        assert osts.tolist() == [0, 1, 0]

    def test_chunks_within_one_stripe(self):
        lay = StripeLayout(stripe_size=100, stripe_count=2, n_osts=4)
        offs, lens, osts = lay.chunks([10, 110], [20, 30])
        assert offs.tolist() == [10, 110]
        assert lens.tolist() == [20, 30]
        assert osts.tolist() == [0, 1]

    def test_chunks_preserve_total_bytes(self):
        lay = StripeLayout(stripe_size=64, stripe_count=3, n_osts=5)
        rng = np.random.default_rng(1)
        offs = np.sort(rng.integers(0, 10_000, 50)) * 7
        lens = rng.integers(1, 500, 50)
        _, clens, _ = lay.chunks(offs, lens)
        assert clens.sum() == lens.sum()

    def test_zero_length_segments_dropped(self):
        lay = StripeLayout(stripe_size=100, stripe_count=2, n_osts=2)
        offs, lens, osts = lay.chunks([0, 50], [0, 10])
        assert offs.tolist() == [50]

    def test_invalid_params(self):
        with pytest.raises(FileSystemError):
            StripeLayout(0, 1, 4)
        with pytest.raises(FileSystemError):
            StripeLayout(100, 5, 4)  # stripe_count > n_osts
        with pytest.raises(FileSystemError):
            StripeLayout(100, 1, 4, start_ost=9)

    def test_negative_offset_rejected(self):
        lay = StripeLayout(100, 2, 4)
        with pytest.raises(FileSystemError):
            lay.chunks([-5], [10])


class TestByteStore:
    def test_write_read_roundtrip(self):
        bs = ByteStore()
        data = np.arange(50, dtype=np.uint8)
        bs.write(100, data)
        np.testing.assert_array_equal(bs.read(100, 50), data)
        assert bs.size == 150

    def test_unwritten_reads_zero(self):
        bs = ByteStore()
        bs.write(10, np.ones(5, dtype=np.uint8))
        np.testing.assert_array_equal(bs.read(0, 10), np.zeros(10, np.uint8))

    def test_growth(self):
        bs = ByteStore(initial_capacity=16)
        bs.write(10_000, np.full(100, 7, dtype=np.uint8))
        assert bs.size == 10_100
        assert bs.read(10_050, 1)[0] == 7

    def test_growth_copies_only_the_written_prefix(self):
        bs = ByteStore(initial_capacity=16)
        bs.write(0, np.arange(1, 11, dtype=np.uint8))
        # spare capacity past the written size is never read, so growth
        # must not carry it over
        bs._buf[10:] = 0xEE
        bs.write(100, np.full(4, 7, dtype=np.uint8))
        assert bs.size == 104 and bs._buf.size >= 104
        np.testing.assert_array_equal(bs.read(0, 10), np.arange(1, 11))
        np.testing.assert_array_equal(bs.read(10, 90), np.zeros(90, np.uint8))
        np.testing.assert_array_equal(bs.read(100, 4), [7, 7, 7, 7])
        assert not bs._buf[104:].any()

    def test_snapshot(self):
        bs = ByteStore()
        bs.write(0, np.array([1, 2, 3], dtype=np.uint8))
        snap = bs.snapshot()
        np.testing.assert_array_equal(snap, [1, 2, 3])
        bs.write(0, np.array([9], dtype=np.uint8))
        assert snap[0] == 1  # snapshot is a copy

    def test_read_past_end_returns_zeros_without_growing(self):
        bs = ByteStore()
        bs.write(0, np.arange(1, 11, dtype=np.uint8))
        capacity = bs._buf.size
        np.testing.assert_array_equal(bs.read(300 << 20, 16),
                                      np.zeros(16, np.uint8))
        # far past the verified-mode cap: still a read, not a write error
        np.testing.assert_array_equal(bs.read(1 << 30, 1), [0])
        got = bs.read_segments([8, 300 << 20, 2], [4, 3, 2])
        np.testing.assert_array_equal(got, [9, 10, 0, 0, 0, 0, 0, 3, 4])
        assert bs._buf.size == capacity and bs.size == 10

    def test_size_cap(self):
        bs = ByteStore()
        with pytest.raises(FileSystemError):
            bs.write(MAX_VERIFIED_BYTES, np.ones(1, dtype=np.uint8))

    def test_negative_offset(self):
        bs = ByteStore()
        with pytest.raises(FileSystemError):
            bs.write(-1, np.ones(1, dtype=np.uint8))


class TestExtentTracker:
    def test_coverage_merges(self):
        t = ExtentTracker()
        t.write(0, 10)
        t.write(10, 10)
        t.write(30, 5)
        o, l = t.extents
        assert o.tolist() == [0, 30]
        assert l.tolist() == [20, 5]
        assert t.covered_bytes == 25
        assert t.size == 35

    def test_is_fully_covered(self):
        t = ExtentTracker()
        t.write(0, 100)
        t.write(200, 100)
        assert t.is_fully_covered(0, 100)
        assert t.is_fully_covered(10, 50)
        assert not t.is_fully_covered(50, 150)
        assert not t.is_fully_covered(100, 200)
        assert t.is_fully_covered(250, 250)  # empty range

    def test_zero_length_ignored(self):
        t = ExtentTracker()
        t.write(5, 0)
        assert t.covered_bytes == 0
