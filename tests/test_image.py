import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from signpipe.image import (ImageCbCr, ImageGray, ImageRGB, PnmError,
                            cbcr_to_rgb, load_pnm, rgb_to_cbcr, save_pnm)


def rgb_images(max_side=12):
    return st.integers(1, max_side).flatmap(
        lambda w: st.integers(1, max_side).flatmap(
            lambda h: st.lists(st.integers(0, 255),
                               min_size=w * h * 3, max_size=w * h * 3).map(
                lambda vals: ImageRGB(
                    w, h, np.array(vals, dtype=np.uint8).reshape(h, w, 3)))))


def pnm_like():
    """Byte strings built from header and sample fragments, valid or not."""
    parts = st.sampled_from([b"P3", b"P6", b"1", b"2", b"255", b"0_3", b"+1",
                             b"-1", b"#", b" ", b"\n", b"\t"])
    return st.lists(parts | st.binary(max_size=4), max_size=24).map(b"".join)


class TestLoadPnm:
    def test_p6_decode(self):
        raw = b"P6 2 1 255\n" + bytes([255, 0, 0, 0, 0, 255])
        img = load_pnm(raw)
        assert (img.width, img.height) == (2, 1)
        assert tuple(img.data[0, 0]) == (255, 0, 0)
        assert tuple(img.data[0, 1]) == (0, 0, 255)

    def test_p3_equivalent(self):
        p6 = load_pnm(b"P6 2 1 255\n" + bytes([255, 0, 0, 0, 0, 255]))
        p3 = load_pnm(b"P3\n2 1\n255\n255 0 0  0 0 255\n")
        assert p3 == p6

    def test_comments_in_header(self):
        raw = b"P6 # a comment\n1 1 # another\n255\n\x01\x02\x03"
        img = load_pnm(raw)
        assert tuple(img.data[0, 0]) == (1, 2, 3)

    def test_zero_width_rejected(self):
        with pytest.raises(PnmError):
            load_pnm(b"P6 0 5 255\n")

    def test_bad_magic_reports_offset(self):
        with pytest.raises(PnmError) as exc:
            load_pnm(b"P5 2 2 255\n" + bytes(12))
        assert exc.value.offset == 0

    def test_wrong_maxval(self):
        with pytest.raises(PnmError, match="maxval"):
            load_pnm(b"P6 1 1 65535\n\x00\x00\x00\x00\x00\x00")

    def test_truncated_payload(self):
        with pytest.raises(PnmError, match="truncated"):
            load_pnm(b"P6 2 2 255\n" + bytes(7))

    @pytest.mark.parametrize("raw", [
        b"P3 100000000 100000000 255 1 2 3",
        b"P3 2 1 255\n1 2 3 4 5",
    ], ids=["huge_header", "one_sample_short"])
    def test_p3_header_larger_than_payload(self, raw):
        with pytest.raises(PnmError, match="truncated"):
            load_pnm(raw)

    def test_p3_missing_sample_reports_payload(self):
        # long enough in bytes to pass the size check, one sample short
        with pytest.raises(PnmError, match="truncated payload, sample 5 of 6"):
            load_pnm(b"P3 2 1 255\n1 2 3 4 56")

    def test_p3_shortest_payload_accepted(self):
        img = load_pnm(b"P3 2 1 255 1 2 3 4 5 6")
        assert img.data.reshape(-1).tolist() == [1, 2, 3, 4, 5, 6]

    @pytest.mark.parametrize("raw,offset", [
        (b"P6 1_0 1 255\n" + bytes(30), 3),
        (b"P3 +1 1 255 1 2 3", 3),
        (b"P3 1 1 255 0_3 1 2", 11),
        (b"P3 1 1 255 1 -2 3", 13),
        (b"P6 " + b"1" * 5000 + b" 1 255\n", 3),
        (b"P3 1 1 255 1 2 " + b"0" * 5000, 15),
    ], ids=["underscore_width", "signed_width", "underscore_sample",
            "negative_sample", "5000_digit_width", "5000_digit_sample"])
    def test_numbers_are_ascii_digits_only(self, raw, offset):
        with pytest.raises(PnmError, match="invalid") as exc:
            load_pnm(raw)
        assert exc.value.offset == offset

    @given(st.binary(max_size=64) | pnm_like())
    @example(b"P6 " + b"1" * 5000 + b" 1 255\n")
    @settings(max_examples=300)
    def test_arbitrary_bytes_raise_only_pnm_error(self, raw):
        try:
            load_pnm(raw)
        except PnmError:
            pass


class TestSavePnm:
    def test_white_pixel(self):
        img = ImageRGB(1, 1, np.full((1, 1, 3), 255, dtype=np.uint8))
        assert save_pnm(img) == b"P6\n1 1\n255\n\xff\xff\xff"

    def test_payload_size(self):
        img = ImageRGB(2, 2, np.zeros((2, 2, 3), dtype=np.uint8))
        raw = save_pnm(img)
        header = b"P6\n2 2\n255\n"
        assert raw.startswith(header)
        assert len(raw) - len(header) == 12

    @given(rgb_images())
    def test_round_trip(self, img):
        assert load_pnm(save_pnm(img)) == img


class TestRgbToCbcr:
    @pytest.mark.parametrize("rgb,expected", [
        ((128, 128, 128), (128, 128)),
        ((0, 0, 0), (128, 128)),
        ((255, 255, 255), (128, 128)),
        # full-range BT.601 of pure red, rounded half-up and clamped
        ((255, 0, 0), (85, 255)),
    ])
    def test_known_pixels(self, rgb, expected):
        img = ImageRGB(1, 1, np.array(rgb, dtype=np.uint8).reshape(1, 1, 3))
        assert tuple(rgb_to_cbcr(img).data[0, 0]) == expected

    @given(st.integers(0, 255))
    def test_achromatic_maps_to_midpoint(self, v):
        img = ImageRGB(1, 1, np.full((1, 1, 3), v, dtype=np.uint8))
        assert tuple(rgb_to_cbcr(img).data[0, 0]) == (128, 128)

    @given(rgb_images(max_side=8))
    @settings(max_examples=30)
    def test_output_range(self, img):
        out = rgb_to_cbcr(img)
        assert out.data.dtype == np.uint8
        assert (out.width, out.height) == (img.width, img.height)

    def test_exhaustive_against_float_formula(self):
        # every 2^24 RGB input, 16 red levels at a time, against the
        # float64 BT.601 formula: 128 + coefficients . rgb, rounded
        # half-up and clamped
        cb_coef = np.array([-0.168736, -0.331264, 0.5])
        cr_coef = np.array([0.5, -0.418688, -0.081312])
        gb = np.stack(np.meshgrid(np.arange(256), np.arange(256),
                                  indexing="ij"), axis=-1).reshape(1, -1, 2)
        for r0 in range(0, 256, 16):
            red = np.broadcast_to(np.arange(r0, r0 + 16)[:, None, None],
                                  (16, gb.shape[1], 1))
            rgb = np.concatenate([red, np.broadcast_to(gb, (16,) + gb.shape[1:])],
                                 axis=-1).astype(np.uint8)
            f = rgb.astype(np.float64)
            expected = np.stack([128.0 + f @ cb_coef, 128.0 + f @ cr_coef],
                                axis=-1)
            expected = np.clip(np.floor(expected + 0.5), 0, 255)
            got = rgb_to_cbcr(ImageRGB(rgb.shape[1], 16, rgb)).data
            assert np.array_equal(got, expected), f"red levels {r0}..{r0 + 15}"

    def test_inverse_is_close_for_midrange_chroma(self):
        # round trip through the synthetic-frame path stays within 1 level
        from signpipe.image import ImageCbCr
        chroma = ImageCbCr(1, 1, np.array([[[88, 151]]], dtype=np.uint8))
        back = rgb_to_cbcr(cbcr_to_rgb(chroma))
        assert np.abs(back.data.astype(int) - chroma.data.astype(int)).max() <= 1


def test_dimension_invariants():
    with pytest.raises(ValueError):
        ImageRGB(0, 1, np.zeros((1, 0, 3), dtype=np.uint8))
    with pytest.raises(ValueError):
        ImageRGB(2, 2, np.zeros((2, 3, 3), dtype=np.uint8))


@pytest.mark.parametrize("cls,dtype,channels", [
    (ImageRGB, np.uint8, (3,)), (ImageCbCr, np.uint8, (2,)),
    (ImageGray, np.int32, ())])
def test_container_shape_dtype_and_equality(cls, dtype, channels):
    data = np.arange(3 * 2 * int(np.prod(channels))).reshape((3, 2) + channels)
    img = cls(2, 3, data[:, ::-1])    # a strided view of int64 values
    assert img.data.dtype == dtype and img.data.flags.c_contiguous
    assert img == cls(2, 3, data[:, ::-1].copy())
    assert img != cls(2, 3, data)
    assert img != data[:, ::-1]       # only an image equals an image
    with pytest.raises(ValueError):
        cls(3, 2, data)
