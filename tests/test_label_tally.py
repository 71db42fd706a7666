"""The oracle's two paths give the same bits: a stride-1 window of a stored
scan reads its counts off the tally its source keeps of the stored codes,
and any other grid counts its codes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdtune as q
from qdtune import classifier as classifier_mod
from qdtune.classifier import oracle_table
from qdtune.grids import SINGLE_DOT_CODES, LabelTally
from qdtune.tuner import DEFAULT_FITNESS

RES = 2.0


def _label_grid(codes):
    n1, n2 = codes.shape
    return q.LabelGrid(codes, 100 + (np.arange(n1) + 0.5) * RES, 200 + (np.arange(n2) + 0.5) * RES)


def _view(labels, rows, cols):
    """The label grid ``labels[rows, cols]``, built on views of its arrays."""
    return q.LabelGrid(labels.labels[rows, cols], labels.v1_axis[rows], labels.v2_axis[cols])


def _source(codes):
    """A stored scan of the label codes ``codes``, with zero sensor values."""
    labels = _label_grid(codes)
    scan = q.ScanGrid(np.zeros(labels.shape), labels.v1_axis, labels.v2_axis, q.ScanMeta(RES))
    return q.PremeasuredScan(scan, labels)


def _stored_window(source, rows, cols):
    """The label window ``rows x cols`` (step-1 slices inside the raster) as
    ``acquire_with_labels`` measures it: centered on the pixel at index
    ``count // 2`` of the window."""
    n1, n2 = rows.stop - rows.start, cols.stop - cols.start
    center = (source.scan.v1_axis[rows.start + n1 // 2], source.scan.v2_axis[cols.start + n2 // 2])
    _, labels = q.acquire_with_labels(source, (float(center[0]), float(center[1])), (n1 * RES, n2 * RES), RES)
    np.testing.assert_array_equal(labels.labels, source.labels.labels[rows, cols])
    return labels


def _all_codes_raster(rng, n1, n2):
    """A random raster of int8 codes in which each of the five codes occurs."""
    codes = rng.integers(0, 5, size=(n1, n2)).astype(np.int8)
    spots = rng.choice(n1 * n2, size=5, replace=False)
    codes.flat[spots] = np.arange(5)
    return codes


def _counted(labels):
    """The counting path's vector for the same codes, from a fresh grid."""
    fresh = q.LabelGrid(np.array(labels.labels), labels.v1_axis.copy(), labels.v2_axis.copy())
    assert fresh.stored_at is None
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
        stored = _stored_window(_source(codes), *window)
        assert stored.stored_at is not None
        assert _same_bits(q.oracle_probability(stored), _counted(stored))

    @given(case=_raster_and_windows())
    @settings(max_examples=200)
    def test_crop_of_crop_matches_counting_and_the_direct_crop(self, case):
        """A view of a stored window's codes counts them itself and gives the
        bits of the stored window at the same place."""
        codes, outer, inner = case
        source = _source(codes)
        nested = _view(_stored_window(source, *outer), *inner)
        assert nested.stored_at is None
        rows = slice(outer[0].start + inner[0].start, outer[0].start + inner[0].stop)
        cols = slice(outer[1].start + inner[1].start, outer[1].start + inner[1].stop)
        direct = _stored_window(source, rows, cols)
        assert nested.labels.tobytes() == direct.labels.tobytes()
        p = q.oracle_probability(nested)
        assert _same_bits(p, _counted(nested))
        assert _same_bits(q.oracle_probability(direct), p)

    def test_every_window_of_a_small_raster(self):
        """All 1x1 to full-raster windows, the border ones included."""
        source = _source(_all_codes_raster(np.random.default_rng(3), 6, 5))
        for r0 in range(6):
            for r1 in range(r0 + 1, 7):
                for c0 in range(5):
                    for c1 in range(c0 + 1, 6):
                        stored = _stored_window(source, slice(r0, r1), slice(c0, c1))
                        assert _same_bits(q.oracle_probability(stored), _counted(stored))

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
        crop = _view(_label_grid(codes), rows, cols)
        np.testing.assert_array_equal(crop.labels, codes[rows, cols])
        assert _same_bits(q.oracle_probability(crop), _counted(crop))

    def test_windows_with_equal_counts_share_one_vector(self):
        source = _source(np.full((8, 8), int(q.StateLabel.DOUBLE_DOT), dtype=np.int8))
        a = q.oracle_probability(_stored_window(source, slice(0, 3), slice(0, 3)))
        b = q.oracle_probability(_stored_window(source, slice(5, 8), slice(4, 7)))
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
        source = q.PremeasuredScan(*reference_scan)
        _, strided = q.acquire_with_labels(source, (301.0, 330.0), (60.0, 60.0), 4.0)
        assert strided.stored_at is None
        p = q.oracle_probability(strided)
        assert "tally" not in vars(source)  # never built
        assert _same_bits(p, _counted(strided))

    def test_write_after_tallying_raises(self):
        """The stored codes a tally counts cannot be written, so no write can
        leave it stale."""
        source = _source(_all_codes_raster(np.random.default_rng(5), 10, 10))
        q.oracle_probability(_stored_window(source, slice(0, 4), slice(0, 4)))
        with pytest.raises(ValueError):
            source.labels.labels[0, 0] = 2

    def test_a_write_through_the_callers_array_reaches_no_stored_window(self):
        """The source copies the codes it is given: a later write through the
        caller's array changes neither the codes of a window measured before
        it or after it nor their oracle vector."""
        base = _all_codes_raster(np.random.default_rng(6), 10, 12)
        n1, n2 = base.shape
        axes = 100 + (np.arange(n1) + 0.5) * RES, 200 + (np.arange(n2) + 0.5) * RES
        scan = q.ScanGrid(np.zeros(base.shape), *axes, q.ScanMeta(RES))
        source = q.PremeasuredScan(scan, q.LabelGrid(base[:, :], *axes))  # codes it does not own
        center, span = (float(axes[0][5]), float(axes[1][6])), (10 * RES, 12 * RES)
        first = q.acquire_with_labels(source, center, span, RES)[1]
        codes = first.labels.copy()
        before = q.oracle_probability(first)
        base[:5, :6] = int(q.StateLabel.DOUBLE_DOT)
        again = q.acquire_with_labels(source, center, span, RES)[1]
        for window in (first, again):
            np.testing.assert_array_equal(window.labels, codes)
            assert _same_bits(q.oracle_probability(window), before)
            assert _same_bits(q.oracle_probability(window), _counted(window))

    def test_callers_array_stays_writable_after_scoring(self):
        base = _all_codes_raster(np.random.default_rng(7), 10, 10)
        axes = 100 + (np.arange(10) + 0.5) * RES, 200 + (np.arange(10) + 0.5) * RES
        scan = q.ScanGrid(np.zeros(base.shape), *axes, q.ScanMeta(RES))
        source = q.PremeasuredScan(scan, q.LabelGrid(base, *axes))
        window = q.acquire_with_labels(source, (float(axes[0][5]), float(axes[1][5])), (20.0, 20.0), RES)[1]
        q.oracle_probability(window)
        assert base.flags.writeable
        base[0, 0] = 2
        assert base[0, 0] == 2

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
        """A source built on a crop view of a caller's raster, whose codes it
        does not own, gives the landscape bytes of one built on a copy."""
        codes, outer, _ = case
        labels = _view(_label_grid(codes), *outer)
        n1, n2 = labels.shape
        w1, w2 = min(w[0], n1), min(w[1], n2)
        scan = q.ScanGrid(np.zeros(labels.shape), labels.v1_axis, labels.v2_axis, q.ScanMeta(RES))
        span = (w1 * RES, w2 * RES)
        copied = q.LabelGrid(np.array(labels.labels), labels.v1_axis, labels.v2_axis)
        got = q.fitness_landscape(q.PremeasuredScan(scan, labels), window_span=span)
        expect = q.fitness_landscape(q.PremeasuredScan(scan, copied), window_span=span)
        assert got.values.tobytes() == expect.values.tobytes()

    def test_a_later_landscape_reads_the_kept_table(self, reference_scan, monkeypatch):
        """A second landscape of the same window shape, under either config,
        builds nothing and gives the bytes of a fresh source's landscape."""
        configs = (q.FitnessConfig(alpha=2.5, cap=False), DEFAULT_FITNESS)
        expect = [q.fitness_landscape(q.PremeasuredScan(*reference_scan), fitness_config=c) for c in configs]
        source = q.PremeasuredScan(*reference_scan)
        q.fitness_landscape(source)

        def refuse(*args, **kwargs):
            raise AssertionError("a landscape built its table again")

        monkeypatch.setattr(np, "unique", refuse)
        monkeypatch.setattr(LabelTally, "window_counts", refuse)
        for config, fresh in zip(configs, expect):
            got = q.fitness_landscape(source, fitness_config=config)
            assert got.values.tobytes() == fresh.values.tobytes()


def _brute_counts(window):
    """Single-dot and double-dot pixels of a code window, counted directly."""
    return int(np.isin(window, SINGLE_DOT_CODES).sum()), int((window == int(q.StateLabel.DOUBLE_DOT)).sum())


class TestKeyTable:
    """One oracle table per window shape: a shared vector per distinct count
    pair, and each window start's index into those vectors."""

    @pytest.mark.parametrize("n1, n2", [(1, 1), (1, 7), (9, 1), (5, 8), (17, 13), (40, 33)])
    @pytest.mark.parametrize("shape", ["1x1", "nx1", "1xm", "full"])
    def test_every_key_decodes_to_the_window_counts(self, n1, n2, shape):
        """Each window start's vector is the one its brute-force counts give,
        and the table holds each count pair once."""
        codes = np.random.default_rng(n1 * 100 + n2).integers(0, 5, size=(n1, n2)).astype(np.int8)
        w1, w2 = {"1x1": (1, 1), "nx1": (n1, 1), "1xm": (1, n2), "full": (n1, n2)}[shape]
        table = oracle_table(LabelTally(codes), w1, w2)
        assert table.index.shape == (n1 - w1 + 1, n2 - w2 + 1)
        assert not table.index.flags.writeable
        assert sorted(set(table.index.ravel().tolist())) == list(range(len(table.vectors)))
        assert len({(p.p_sd, p.p_dd) for p in table.vectors}) == len(table.vectors)
        for r in range(n1 - w1 + 1):
            for c in range(n2 - w2 + 1):
                p = table.rows[r][c]
                assert p is table.vectors[table.index[r, c]]
                expect = q.ProbabilityVector.from_counts(w1 * w2, *_brute_counts(codes[r : r + w1, c : c + w2]))
                assert _same_bits(p, expect)

    @pytest.mark.parametrize("w1, w2", [(30, 30), (20, 35)])
    def test_every_vector_of_the_study_scan_has_the_bits_of_from_counts(self, reference_source, w1, w2):
        """The table builds its vectors without checking them: each has the
        type, field bits, equality and hash that ``from_counts`` gives the
        counts of the first window that reads it."""
        tally = LabelTally(reference_source.labels.labels)
        table = oracle_table(tally, w1, w2)
        sd, dd = tally.window_counts(w1, w2)
        if (w1, w2) == (30, 30):
            assert len(table.vectors) == 1152
        first = np.unique(table.index.ravel(), return_index=True)[1]
        assert len(first) == len(table.vectors)
        for p, flat in zip(table.vectors, first.tolist()):
            r, c = divmod(flat, table.index.shape[1])
            expect = q.ProbabilityVector.from_counts(w1 * w2, int(sd[r, c]), int(dd[r, c]))
            assert type(p) is q.ProbabilityVector
            assert _same_bits(p, expect)
            assert p == expect and hash(p) == hash(expect)

    def test_each_shape_is_built_once(self, monkeypatch):
        tally = LabelTally(_all_codes_raster(np.random.default_rng(8), 12, 9))
        first = oracle_table(tally, 3, 4)
        other = oracle_table(tally, 4, 3)
        assert other is not first
        assert list(tally.tables) == [(3, 4), (4, 3)]

        def refuse(*args):
            raise AssertionError("a kept table was built again")

        monkeypatch.setattr(LabelTally, "window_counts", refuse)
        assert oracle_table(tally, 3, 4) is first
        assert oracle_table(tally, 4, 3) is other

    def test_the_table_is_built_when_the_oracle_first_reads_a_shape(self):
        source = _source(_all_codes_raster(np.random.default_rng(9), 10, 10))
        window = _stored_window(source, slice(2, 5), slice(1, 7))
        assert not source.tally.tables  # cutting the window builds none
        q.oracle_probability(window)
        assert list(source.tally.tables) == [(3, 6)]

    def test_every_stride_one_window_of_the_study_scan(self, reference_source):
        """Each 60 x 60 mV window at 2 mV/px of the 200 x 200 px scan: the
        table gives the vector of the window's own codes, counted."""
        v1, v2 = reference_source.scan.v1_axis.tolist(), reference_source.scan.v2_axis.tolist()
        n = 30
        seen = 0
        for i in range(n // 2, len(v1) - n // 2 + 1):
            for j in range(n // 2, len(v2) - n // 2 + 1):
                _, labels = q.acquire_with_labels(reference_source, (v1[i], v2[j]), (60.0, 60.0), 2.0)
                assert labels.stored_at[1:] == (i - n // 2, j - n // 2)
                counts = np.bincount(labels.labels.ravel(), minlength=5)
                expect = q.ProbabilityVector.from_counts(n * n, int(counts[1:4].sum()), int(counts[4]))
                assert _same_bits(q.oracle_probability(labels), expect)
                seen += 1
        assert seen == (len(v1) - n + 1) * (len(v2) - n + 1)

    @pytest.mark.parametrize("stride", [2, 3])
    def test_strided_windows_count_their_own_codes(self, stride, reference_scan, monkeypatch):
        source = q.PremeasuredScan(*reference_scan)

        def refuse(*args):
            raise AssertionError("a strided window read the oracle table")

        monkeypatch.setattr(classifier_mod, "oracle_table", refuse)
        for center in ((301.0, 330.0), (250.0, 420.0), (400.0, 300.0)):
            _, labels = q.acquire_with_labels(source, center, (60.0, 60.0), 2.0 * stride)
            assert labels.stored_at is None
            n_sd, n_dd = _brute_counts(labels.labels)
            expect = q.ProbabilityVector.from_counts(labels.labels.size, n_sd, n_dd)
            assert _same_bits(q.oracle_probability(labels), expect)
