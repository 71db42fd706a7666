"""The oracle's two paths give the same bits: a stride-1 crop reads its
counts off the summed-area tally of the raster it was cut from, and any
other grid counts its codes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdtune as q
from qdtune.grids import LabelTally


def _label_grid(codes):
    n1, n2 = codes.shape
    return q.LabelGrid(codes, 100 + (np.arange(n1) + 0.5) * 2.0, 200 + (np.arange(n2) + 0.5) * 2.0)


def _all_codes_raster(rng, n1, n2):
    """A random raster of int8 codes in which each of the five codes occurs."""
    codes = rng.integers(0, 5, size=(n1, n2)).astype(np.int8)
    spots = rng.choice(n1 * n2, size=5, replace=False)
    codes.flat[spots] = np.arange(5)
    return codes


def _counted(labels):
    """The counting path's vector for the same codes, from a fresh grid."""
    fresh = q.LabelGrid(np.array(labels.labels), labels.v1_axis.copy(), labels.v2_axis.copy())
    assert not fresh.is_crop
    return q.oracle_probability(fresh)


def _same_bits(a, b):
    return a.as_array().tobytes() == b.as_array().tobytes()


@st.composite
def _window(draw, n1, n2):
    """Step-1 slices of a window from 1x1 to the whole raster."""
    r0 = draw(st.integers(0, n1 - 1))
    c0 = draw(st.integers(0, n2 - 1))
    return slice(r0, draw(st.integers(r0 + 1, n1))), slice(c0, draw(st.integers(c0 + 1, n2)))


@st.composite
def _raster_and_windows(draw):
    n1, n2 = draw(st.integers(3, 24)), draw(st.integers(3, 24))
    seed = draw(st.integers(0, 2**32 - 1))
    outer = draw(_window(n1, n2))
    o1, o2 = (s.stop - s.start for s in outer)
    return _all_codes_raster(np.random.default_rng(seed), n1, n2), outer, draw(_window(o1, o2))


class TestTalliedOracle:
    @given(case=_raster_and_windows())
    @settings(max_examples=200)
    def test_crop_matches_counting_bit_for_bit(self, case):
        codes, window, _ = case
        crop = _label_grid(codes).crop(*window)
        assert crop.is_crop
        assert _same_bits(q.oracle_probability(crop), _counted(crop))

    @given(case=_raster_and_windows())
    @settings(max_examples=200)
    def test_crop_of_crop_matches_counting_and_the_direct_crop(self, case):
        codes, outer, inner = case
        root = _label_grid(codes)
        nested = root.crop(*outer).crop(*inner)
        rows = slice(outer[0].start + inner[0].start, outer[0].start + inner[0].stop)
        cols = slice(outer[1].start + inner[1].start, outer[1].start + inner[1].stop)
        direct = root.crop(rows, cols)
        assert nested.labels.tobytes() == direct.labels.tobytes()
        p = q.oracle_probability(nested)
        assert _same_bits(p, _counted(nested))
        assert q.oracle_probability(direct) is p

    def test_every_window_of_a_small_raster(self):
        """All 1x1 to full-raster windows, the border ones included."""
        codes = _all_codes_raster(np.random.default_rng(3), 6, 5)
        root = _label_grid(codes)
        for r0 in range(6):
            for r1 in range(r0 + 1, 7):
                for c0 in range(5):
                    for c1 in range(c0 + 1, 6):
                        crop = root.crop(slice(r0, r1), slice(c0, c1))
                        assert _same_bits(q.oracle_probability(crop), _counted(crop))

    @pytest.mark.parametrize(
        "rows, cols",
        [
            (slice(-4, None), slice(None, 3)),
            (slice(None, None), slice(-1, None)),
            (slice(2, 100), slice(None, -2)),
        ],
    )
    def test_slices_are_normalised(self, rows, cols):
        codes = _all_codes_raster(np.random.default_rng(4), 9, 7)
        crop = _label_grid(codes).crop(rows, cols)
        np.testing.assert_array_equal(crop.labels, codes[rows, cols])
        assert _same_bits(q.oracle_probability(crop), _counted(crop))

    def test_windows_with_equal_counts_share_one_vector(self):
        codes = np.full((8, 8), int(q.StateLabel.DOUBLE_DOT), dtype=np.int8)
        root = _label_grid(codes)
        a = q.oracle_probability(root.crop(slice(0, 3), slice(0, 3)))
        b = q.oracle_probability(root.crop(slice(5, 8), slice(4, 7)))
        assert a is b
        assert (a.p_none, a.p_sd, a.p_dd) == (0.0, 0.0, 1.0)

    def test_stored_crop_reads_no_codes(self, reference_source, monkeypatch):
        first = q.acquire_with_labels(reference_source, (300.0, 330.0), (60.0, 60.0), 2.0)[1]
        expect = _counted(first)
        q.oracle_probability(first)  # tallies the stored raster

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle counted codes")

        monkeypatch.setattr(np, "bincount", refuse)
        with pytest.raises(AssertionError, match="counted codes"):
            q.oracle_probability(_label_grid(np.array(first.labels)))
        again = q.acquire_with_labels(reference_source, (300.0, 330.0), (60.0, 60.0), 2.0)[1]
        assert _same_bits(q.oracle_probability(again), expect)

    def test_strided_window_stays_on_the_counting_path(self, reference_scan):
        scan, labels = reference_scan
        stored = q.LabelGrid(labels.labels.copy(), labels.v1_axis, labels.v2_axis)
        source = q.PremeasuredScan(scan, stored)
        _, strided = q.acquire_with_labels(source, (301.0, 330.0), (60.0, 60.0), 4.0)
        assert not strided.is_crop
        p = q.oracle_probability(strided)
        assert stored._tally is None
        assert _same_bits(p, _counted(strided))

    def test_write_after_tallying_raises(self):
        root = _label_grid(_all_codes_raster(np.random.default_rng(5), 10, 10))
        root.labels[0, 0] = 1  # writable until tallied
        q.oracle_probability(root.crop(slice(0, 4), slice(0, 4)))
        with pytest.raises(ValueError):
            root.labels[0, 0] = 2

    def test_tallying_copies_codes_it_does_not_own(self):
        """A write through the array the grid was built on cannot reach the
        tallied codes."""
        base = _all_codes_raster(np.random.default_rng(6), 10, 12)
        root = _label_grid(base[:, :])
        assert not root.labels.flags.owndata
        window = (slice(0, 5), slice(0, 6))
        before = q.oracle_probability(root.crop(*window))
        base[:5, :6] = int(q.StateLabel.DOUBLE_DOT)
        after = root.crop(*window)
        assert _same_bits(q.oracle_probability(after), before)
        assert _same_bits(q.oracle_probability(after), _counted(after))

    def test_tally_tables_are_read_only(self):
        tally = LabelTally(np.zeros((3, 4), dtype=np.int8))
        for table in (tally.sd, tally.dd):
            assert table.shape == (4, 5)
            with pytest.raises(ValueError):
                table[1, 1] = 7


class TestLandscapeReadsTheTally:
    @given(case=_raster_and_windows(), w=st.tuples(st.integers(1, 4), st.integers(1, 4)))
    @settings(max_examples=60)
    def test_cropped_source_matches_a_copied_one(self, case, w):
        """The landscape of a stored crop reads the parent's tally at the crop's
        offset and gives the bytes of a landscape over a copy of its codes."""
        codes, outer, _ = case
        root = _label_grid(codes)
        labels = root.crop(*outer)
        n1, n2 = labels.shape
        w1, w2 = min(w[0], n1), min(w[1], n2)
        scan = q.ScanGrid(np.zeros(labels.shape), labels.v1_axis, labels.v2_axis, q.ScanMeta(2.0))
        span = (w1 * 2.0, w2 * 2.0)
        copied = _label_grid(np.array(labels.labels))
        got = q.fitness_landscape(q.PremeasuredScan(scan, labels), window_span=span)
        expect = q.fitness_landscape(q.PremeasuredScan(scan, copied), window_span=span)
        assert got.values.tobytes() == expect.values.tobytes()
        assert root._tally is not None
