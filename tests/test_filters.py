import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from signpipe import filters
from signpipe.filters import (GAUSSIAN_KERNEL, LineBufferState, gaussian3x3,
                              median3x3, stream_window)
from signpipe.image import ImageCbCr, ImageGray
from signpipe.oracles import stream_gaussian3x3, stream_median3x3

from refusals import int_refusals


def planes(max_side=10, max_value=255):
    """Integer planes up to max_side a side with values in [0, max_value].

    Each plane draws its values from the whole range, from the two ends
    of the range only, or from a few levels that may skip values and
    need not include 0.
    """
    values = st.integers(0, max_value)
    levels = st.one_of(
        st.just(values),
        st.just(st.sampled_from([0, max_value])),
        st.lists(values, min_size=1, max_size=3, unique=True).map(
            st.sampled_from))
    return st.tuples(st.integers(1, max_side), st.integers(1, max_side),
                     levels).flatmap(
        lambda whv: st.lists(whv[2], min_size=whv[0] * whv[1],
                             max_size=whv[0] * whv[1]).map(
            lambda vals: np.array(vals).reshape(whv[1], whv[0])))


def chroma(plane):
    return ImageCbCr(plane.shape[1], plane.shape[0],
                     np.stack([plane, plane], axis=-1).astype(np.uint8))


def gather_window(plane, cx, cy):
    h, w = plane.shape
    return tuple(int(plane[min(max(cy + dy, 0), h - 1),
                           min(max(cx + dx, 0), w - 1)])
                 for dy in (-1, 0, 1) for dx in (-1, 0, 1))


class TestStreamWindow:
    def test_3x3_center_window_is_image(self):
        img = np.arange(9).reshape(3, 3)
        wins = list(stream_window(3, 3, img.reshape(-1).tolist()))
        assert len(wins) == 9
        assert wins[4] == tuple(range(9))

    def test_1x2_replication(self):
        wins = list(stream_window(1, 2, [7, 9]))
        assert wins == [(7, 7, 7, 7, 7, 7, 9, 9, 9),
                        (7, 7, 7, 9, 9, 9, 9, 9, 9)]

    @given(planes())
    @settings(max_examples=60)
    def test_matches_random_access_gather(self, plane):
        h, w = plane.shape
        wins = list(stream_window(w, h, plane.reshape(-1).tolist()))
        assert wins == [gather_window(plane, x, y)
                        for y in range(h) for x in range(w)]

    def test_stream_too_short(self):
        with pytest.raises(ValueError, match="stream-length mismatch"):
            list(stream_window(3, 3, range(8)))

    def test_stream_too_long(self):
        with pytest.raises(ValueError, match="stream-length mismatch"):
            list(stream_window(3, 3, range(10)))

    def test_bad_dimensions(self):
        rows = [(v, 1, message) for _, v, message in int_refusals("width", 1)]
        rows += [(1, v, message)
                 for _, v, message in int_refusals("height", 1)]
        for width, height, message in rows:
            with pytest.raises(ValueError, match=re.escape(message)):
                list(stream_window(width, height, []))

    def test_memory_bound(self):
        state = LineBufferState(17)
        assert state.retained() <= 2 * 17
        for x in range(17):
            state.push(x, 0, x)
        assert state.retained() <= 2 * 17 + 9  # one 3x3 window register

    @pytest.mark.parametrize("w, h, peak", [
        (3, 3, 15), (17, 5, 43), (40, 9, 89), (4, 1, 17),
        (1, 4, 11), (2, 3, 13),
    ])
    def test_line_buffer_peak(self, w, h, peak, monkeypatch):
        # two rows plus the nine values of the window register, at any w
        seen = []

        class Recording(LineBufferState):
            def push(self, *args, **kwargs):
                super().push(*args, **kwargs)
                seen.append(self.retained())

        monkeypatch.setattr(filters, "LineBufferState", Recording)
        assert len(list(stream_window(w, h, range(w * h)))) == w * h
        assert max(seen) == peak == 2 * w + 9


class TestGaussian:
    def test_constant_fixed_point(self):
        img = chroma(np.full((5, 6), 100))
        assert gaussian3x3(img) == img

    def test_interior_impulse(self):
        plane = np.zeros((5, 5), dtype=int)
        plane[2, 2] = 16
        out = gaussian3x3(chroma(plane)).data[:, :, 0].astype(int)
        expected = np.zeros((5, 5), dtype=int)
        expected[1:4, 1:4] = np.array(GAUSSIAN_KERNEL).reshape(3, 3)
        assert np.array_equal(out, expected)

    def test_1x1_identity(self):
        img = chroma(np.array([[123]]))
        assert gaussian3x3(img) == img

    @given(planes())
    @example(np.zeros((4, 3), dtype=int))
    @example(np.full((3, 5), 255))
    @example(np.array([[0, 255, 0], [255, 255, 0]]))
    @settings(max_examples=40)
    def test_matches_stream_reference(self, plane):
        img = chroma(plane)
        assert gaussian3x3(img) == stream_gaussian3x3(img)

    @given(planes())
    @settings(max_examples=40)
    def test_output_within_window_range(self, plane):
        out = gaussian3x3(chroma(plane)).data[:, :, 0].astype(int)
        h, w = plane.shape
        for y in range(h):
            for x in range(w):
                cells = gather_window(plane, x, y)
                assert min(cells) <= out[y, x] <= max(cells)


class TestMedian:
    def test_isolated_deviant_suppressed(self):
        plane = np.zeros((3, 3), dtype=int)
        plane[1, 1] = 5
        out = median3x3(ImageGray(3, 3, plane))
        assert out.data[1, 1] == 0

    def test_median_of_1_to_9(self):
        plane = np.arange(1, 10).reshape(3, 3)
        out = median3x3(ImageGray(3, 3, plane))
        assert out.data[1, 1] == 5

    def test_constant_idempotent(self):
        img = ImageGray(4, 4, np.full((4, 4), 2))
        assert median3x3(img) == img

    @given(planes(max_value=7))
    @example(np.array([[2, 5, 7, 7], [5, 2, 7, 2], [7, 7, 5, 5]]))
    @settings(max_examples=40)
    def test_matches_stream_reference(self, plane):
        labels = ImageGray(plane.shape[1], plane.shape[0], plane)
        assert median3x3(labels) == stream_median3x3(labels)

    @given(planes(max_value=7))
    @settings(max_examples=40)
    def test_output_value_present_in_window(self, plane):
        out = median3x3(ImageGray(plane.shape[1], plane.shape[0], plane))
        h, w = plane.shape
        for y in range(h):
            for x in range(w):
                assert out.data[y, x] in gather_window(plane, x, y)

    def test_interior_pixel_majority_neighbors(self):
        plane = np.full((3, 3), 7)
        plane[1, 1] = 2
        out = median3x3(ImageGray(3, 3, plane))
        assert out.data[1, 1] == 7
