import ast
import itertools
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from signpipe import image
from signpipe.image import (_TOKEN, ImageCbCr, ImageGray, ImageRGB, PnmError,
                            cbcr_to_rgb, load_pnm, rgb_to_cbcr, save_pnm)
from signpipe.oracles import dot_rgb_to_cbcr
from signpipe.synthetic import MAX_SIDE, disc_frame

from refusals import int_refusals, real_refusals


def rgb_images(max_side=12):
    return st.integers(1, max_side).flatmap(
        lambda w: st.integers(1, max_side).flatmap(
            lambda h: st.lists(st.integers(0, 255),
                               min_size=w * h * 3, max_size=w * h * 3).map(
                lambda vals: ImageRGB(
                    np.array(vals, dtype=np.uint8).reshape(h, w, 3)))))


def pnm_like():
    """Byte strings built from header and sample fragments, valid or not."""
    parts = st.sampled_from([b"P3", b"P6", b"1", b"2", b"255", b"0_3", b"+1",
                             b"-1", b"#", b" ", b"\n", b"\t"])
    return st.lists(parts | st.binary(max_size=4), max_size=24).map(b"".join)


def separator(first_space=True):
    """Whitespace and '#' comments between two P3 tokens."""
    space = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"])
    comment = st.binary(max_size=8).map(
        lambda text: b"#" + text.replace(b"\n", b"") + b"\n")
    rest = st.lists(space | comment, max_size=3).map(b"".join)
    if not first_space:
        return rest
    return st.tuples(space, rest).map(b"".join)


@st.composite
def p3_with_separators(draw):
    """An image and its P3 encoding with random separators between tokens.

    A separator starts with whitespace, as a '#' right after a token
    belongs to that token; the data may end in a comment without a
    newline."""
    img = draw(rgb_images(max_side=5))
    tokens = [b"P3", b"%d" % img.width, b"%d" % img.height, b"255"]
    tokens += [b"%d" % v for v in img.data.reshape(-1).tolist()]
    seps = draw(st.lists(separator(), min_size=len(tokens),
                         max_size=len(tokens)))
    raw = draw(separator(first_space=False))
    raw += b"".join(t + s for t, s in zip(tokens, seps))
    return img, raw + draw(st.sampled_from([b"", b"#", b"# no newline"]))


# 100,000 bytes without a whitespace byte: one token, the magic
NO_WHITESPACE = bytes(b for b in range(256) if not bytes([b]).isspace()) * 400


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

    @pytest.mark.parametrize("raw", [
        b"P6 2 1 255\n" + bytes([255, 0, 7, 32, 10, 255]),
        b"P3\n2 1\n255\n255 0 7  32 10 255\n",
    ], ids=["P6", "P3"])
    @pytest.mark.parametrize("buffer", [bytearray, memoryview])
    def test_any_bytes_like_buffer(self, raw, buffer):
        assert load_pnm(buffer(raw)) == load_pnm(raw)
        assert load_pnm(raw).data.reshape(-1).tolist() == [255, 0, 7,
                                                            32, 10, 255]

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

    @pytest.mark.parametrize("magic", [b"P6", b"P3"])
    def test_header_sides_past_2000_digits_raise_pnm_error(self, magic):
        # two 2201-digit sides make a frame size Python will not print
        side = b"1" * 2201
        with pytest.raises(PnmError, match="invalid width") as exc:
            load_pnm(magic + b" " + side + b" " + side + b" 255\n")
        assert exc.value.offset == 3

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
        # a '#' inside a token belongs to the token
        (b"P3 1 1 255 12#3 1 2", 11),
        (b"P3 1#2 1 255 1 2 3", 3),
    ], ids=["underscore_width", "signed_width", "underscore_sample",
            "negative_sample", "5000_digit_width", "5000_digit_sample",
            "hash_in_sample", "hash_in_width"])
    def test_numbers_are_ascii_digits_only(self, raw, offset):
        with pytest.raises(PnmError, match="invalid") as exc:
            load_pnm(raw)
        assert exc.value.offset == offset

    @pytest.mark.parametrize("raw,offset", [
        (NO_WHITESPACE, 0),
        (b"P6 1 1 " + b"9" * 4000, 7),
    ], ids=["100000_byte_magic", "4000_digit_maxval"])
    def test_long_token_is_echoed_short(self, raw, offset):
        with pytest.raises(PnmError) as exc:
            load_pnm(raw)
        assert exc.value.offset == offset
        assert len(str(exc.value).encode()) < 200

    @pytest.mark.parametrize("raw,message,offset", [
        (b"P3 1 1 255 1 256 3", "sample 256 out of range [0, 255]", 13),
        (b"P6 1 0 255\n", "height must be >= 1, got 0", 5),
        (b"P6 1 1 255", "missing whitespace after maxval", 10),
    ], ids=["sample_above_255", "zero_height", "no_whitespace_after_maxval"])
    def test_error_names_the_fault_and_its_offset(self, raw, message, offset):
        with pytest.raises(PnmError, match=re.escape(message)) as exc:
            load_pnm(raw)
        assert exc.value.offset == offset

    def test_comment_inside_p3_payload(self):
        img = load_pnm(b"P3 1 1 255 1 # two 2 3\n2\t#\n3 # end")
        assert img.data.reshape(-1).tolist() == [1, 2, 3]

    # the explain phase traces every line of a failing example's replays,
    # which takes minutes over a payload loop; shrinking alone is seconds
    @given(p3_with_separators())
    @settings(max_examples=100,
              phases=[p for p in Phase if p is not Phase.explain])
    def test_p3_with_any_separators(self, case):
        img, raw = case
        assert load_pnm(raw) == img

    @given(st.binary(max_size=64) | pnm_like())
    @example(b"P6 " + b"1" * 5000 + b" 1 255\n")
    @settings(max_examples=300)
    def test_arbitrary_bytes_raise_only_pnm_error(self, raw):
        try:
            load_pnm(raw)
        except PnmError:
            pass


def scan(raw):
    """load_pnm's samples with every payload handed to the `_TOKEN` scan."""
    with mock.patch.object(image, "_p3_samples", lambda raw, pos, n: None):
        return load_pnm(raw).data.reshape(-1)


def fast(raw):
    """The block reader's samples for the payload after raw's header."""
    _, width, height, maxval = itertools.islice(_TOKEN.finditer(raw), 4)
    n = int(width[1]) * int(height[1]) * 3
    return image._p3_samples(raw, maxval.end(), n)


def agrees_with_the_scan(raw):
    """The block reader hands over what the scan refuses, and reads
    what it does not hand over as the scan does."""
    samples = fast(raw)
    try:
        expected = scan(raw)
    except PnmError:
        assert samples is None
    else:
        assert samples is None or np.array_equal(samples, expected)


@st.composite
def p3_payloads(draw):
    """A valid P3 header, then arbitrary bytes, P3-like fragments, or about
    as many numbers as the header asks for, most of them valid samples,
    between runs of whitespace that may be empty."""
    width, height = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    n = width * height * 3
    number = st.sampled_from([b"0", b"7", b"25", b"99", b"100", b"255",
                              b"007", b"256", b"999", b"0255"])
    space = st.sampled_from([b" ", b"\n", b"\r\n", b"\t", b"\x0b\x0c", b""])
    numbers = st.lists(st.tuples(number, space).map(b"".join),
                       min_size=n - 1, max_size=n + 1).map(b"".join)
    payload = draw(st.binary(max_size=64) | pnm_like() | numbers)
    return b"P3 %d %d 255 %s" % (width, height, payload)


def p3_encodings():
    """`p3_with_separators` encodings, half of them with comments cut out."""
    return st.tuples(p3_with_separators(), st.booleans()).map(
        lambda c: re.sub(rb"#[^\n]*", b"", c[0][1]) if c[1] else c[0][1])


class TestP3Reader:
    """`_p3_samples` against the `_TOKEN` scan that it hands anomalies to."""

    @given(p3_payloads() | p3_encodings())
    @settings(max_examples=150,
              phases=[p for p in Phase if p is not Phase.explain])
    def test_fast_reader_agrees_with_the_scan(self, raw):
        agrees_with_the_scan(raw)

    # 1 is the smallest block: a cut is at least one byte past the start
    @pytest.mark.parametrize("block", [1, 2, 3, 4, 7])
    @given(raw=p3_payloads() | p3_encodings())
    @settings(max_examples=60,
              phases=[p for p in Phase if p is not Phase.explain])
    def test_small_blocks_agree_with_the_scan(self, block, raw):
        with mock.patch.object(image, "_P3_BLOCK", block):
            agrees_with_the_scan(raw)

    @pytest.mark.parametrize("block,raw,read,samples", [
        # the data ends inside the 4 bytes past the cut: kept whole
        (5, b"P3 1 1 255 1 2 255", True, [1, 2, 255]),
        (6, b"P3 1 1 255 1 2 255", True, [1, 2, 255]),
        (4, b"P3 1 1 255 1 2 25\n", True, [1, 2, 25]),
        # four digits across the cut, found in a block or by the cut
        (4, b"P3 1 1 255 1 0255 2 ", False, [1, 255, 2]),
        (3, b"P3 1 1 255 1 0255 2 ", False, [1, 255, 2]),
        # a comment or junk just past the cut
        (4, b"P3 1 1 255 1 2 #c\n3 ", False, [1, 2, 3]),
        (5, b"P3 1 1 255 1 2 #c\n3 ", False, [1, 2, 3]),
        (5, b"P3 1 1 255 1 2 #abc\n3 ", False, [1, 2, 3]),
        (7, b"P3 1 1 255 1 2 3 junk", False, [1, 2, 3]),
        (5, b"P3 1 1 255 1 2 3 junk", False, [1, 2, 3]),
    ], ids=["last_token_past_cut", "last_token_across_cut",
            "last_space_past_cut", "four_digits_in_block",
            "four_digits_at_cut", "comment_next_block", "comment_in_block",
            "comment_at_cut", "junk_to_the_end", "junk_next_block"])
    def test_cuts_between_blocks(self, block, raw, read, samples):
        with mock.patch.object(image, "_P3_BLOCK", block):
            assert (fast(raw) is not None) is read
            if read:
                assert fast(raw).tolist() == samples
            assert load_pnm(raw).data.reshape(-1).tolist() == samples

    def test_reads_a_payload_of_digits_and_whitespace(self):
        raw = b"P3 2 1 255\r\n0 10 255\t9\x0b099\x0c100 \n"
        assert fast(raw).tolist() == [0, 10, 255, 9, 99, 100]
        assert load_pnm(raw).data.reshape(-1).tolist() == [0, 10, 255, 9,
                                                             99, 100]
        assert load_pnm(memoryview(raw)) == load_pnm(raw)

    @pytest.mark.parametrize("raw,samples", [
        (b"P3 1 1 255 0255 0000 7", [255, 0, 7]),
        (b"P3 1 1 255 1 2 3 junk", [1, 2, 3]),
        (b"P3 1 1 255 1 2 3 # end", [1, 2, 3]),
        (b"P3 1 1 255 1 2 3 4 5", [1, 2, 3]),
        (b"P3 1 1 255 1 # two\n2 3", [1, 2, 3]),
    ], ids=["four_digits", "trailing_junk", "trailing_comment",
            "extra_samples", "hash_mid_payload"])
    def test_hand_over_keeps_what_the_scan_accepts(self, raw, samples):
        assert fast(raw) is None
        assert load_pnm(raw).data.reshape(-1).tolist() == samples

    @pytest.mark.parametrize("raw,message,offset", [
        (b"P3 1 1 255 1 256 3", "sample 256 out of range [0, 255]", 13),
        (b"P3 1 1 255 1 2#3 3", "invalid sample b'2#3'", 13),
        (b"P3 2 1 255\n1 2 3 4 56",
         "truncated payload, sample 5 of 6 is missing", 21),
    ], ids=["sample_above_255", "hash_in_sample", "one_sample_short"])
    def test_hand_over_keeps_the_scan_errors(self, raw, message, offset):
        assert fast(raw) is None
        with pytest.raises(PnmError, match=re.escape(message)) as exc:
            load_pnm(raw)
        assert exc.value.offset == offset

    def test_byte_table_is_the_grammar(self):
        # a byte is whitespace to `_TOKEN` when a token after it starts
        # right past it ('#' starts a comment and swallows the token)
        spaces = {b for b in range(256)
                  if _TOKEN.match(bytes([b]) + b"1")[1] == b"1"}
        assert spaces == {9, 10, 11, 12, 13, 32}
        kinds = {b: image._P3_BYTES[b] for b in range(256)}
        assert {b for b, k in kinds.items() if k == image._SPACE} == spaces
        assert {b: k for b, k in kinds.items() if k < 10} == {
            ord(str(k)): k for k in range(10)}
        assert set(kinds.values()) == set(range(10)) | {image._SPACE,
                                                         image._OTHER}

    def test_peak_memory_per_payload_byte(self):
        rng = np.random.default_rng(0)
        img = ImageRGB(rng.integers(0, 256, (480, 640, 3), dtype=np.uint8))
        header = b"P3\n640 480\n255\n"
        lines = img.data.reshape(-1, 15).tolist()
        raw = header + b"\n".join(b" ".join(b"%d" % v for v in line)
                                  for line in lines) + b"\n"
        assert np.array_equal(fast(raw), img.data.reshape(-1))
        tracemalloc.start()
        try:
            out = load_pnm(raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out == img
        assert peak <= 2 * (len(raw) - len(header))


class TestSavePnm:
    def test_white_pixel(self):
        img = ImageRGB(np.full((1, 1, 3), 255, dtype=np.uint8))
        assert save_pnm(img) == b"P6\n1 1\n255\n\xff\xff\xff"

    def test_payload_size(self):
        img = ImageRGB(np.zeros((2, 2, 3), dtype=np.uint8))
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
        img = ImageRGB(np.array(rgb, dtype=np.uint8).reshape(1, 1, 3))
        assert tuple(rgb_to_cbcr(img).data[0, 0]) == expected

    @given(st.integers(0, 255))
    def test_achromatic_maps_to_midpoint(self, v):
        img = ImageRGB(np.full((1, 1, 3), v, dtype=np.uint8))
        assert tuple(rgb_to_cbcr(img).data[0, 0]) == (128, 128)

    @given(rgb_images(max_side=8))
    @settings(max_examples=30)
    def test_output_range(self, img):
        out = rgb_to_cbcr(img)
        assert out.data.dtype == np.uint8
        assert (out.width, out.height) == (img.width, img.height)

    @pytest.mark.parametrize("convert", [rgb_to_cbcr, dot_rgb_to_cbcr])
    @given(data=st.data())
    @settings(max_examples=50)
    def test_same_shift_on_every_channel_keeps_chroma(self, convert, data):
        # each coefficient row sums to zero, so chroma depends only on
        # (r-g, b-g): the premise of the conversion table
        img = data.draw(rgb_images(max_side=6))
        k = data.draw(st.integers(-int(img.data.min()),
                                  255 - int(img.data.max())))
        shifted = ImageRGB(img.data + np.int16(k))
        assert convert(shifted) == convert(img)

    def test_table_is_read_only(self):
        table = image._cbcr_of_differences()
        with pytest.raises(ValueError):
            table[0, 0] = 1
        with pytest.raises(ValueError):
            image._index_of_pairs()[0] = 1

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
            got = rgb_to_cbcr(ImageRGB(rgb)).data
            assert np.array_equal(got, expected), f"red levels {r0}..{r0 + 15}"

    def test_inverse_exhaustive_against_float_formula(self):
        # all 65,536 (Cb, Cr) pairs in shuffled order, against the float64
        # inverse BT.601 at luma 128, rounded half-up and clamped
        pairs = np.random.default_rng(0).permutation(65536)
        chroma = np.stack([pairs >> 8, pairs & 255], axis=-1).astype(np.uint8)
        cb = chroma[:, 0].astype(np.float64) - 128.0
        cr = chroma[:, 1].astype(np.float64) - 128.0
        expected = np.stack([128 + 1.402 * cr,
                             128 - 0.344136 * cb - 0.714136 * cr,
                             128 + 1.772 * cb], axis=-1)
        expected = np.clip(np.floor(expected + 0.5), 0, 255)
        got = cbcr_to_rgb(ImageCbCr(chroma.reshape(256, 256, 2)))
        assert np.array_equal(got.data.reshape(-1, 3), expected)

    def test_inverse_is_close_for_midrange_chroma(self):
        # round trip through the synthetic-frame path stays within 1 level
        from signpipe.image import ImageCbCr
        chroma = ImageCbCr(np.array([[[88, 151]]], dtype=np.uint8))
        back = rgb_to_cbcr(cbcr_to_rgb(chroma))
        assert np.abs(back.data.astype(int) - chroma.data.astype(int)).max() <= 1


def test_dimension_invariants():
    # the settings of the synthetic frame
    calls = [(lambda v: disc_frame(width=v), "width", 1, MAX_SIDE),
             (lambda v: disc_frame(height=v), "height", 1, MAX_SIDE)]
    calls += [(lambda v, name=name: disc_frame(**{name: v}), name, 0, None)
              for name in ("radius", "ring", "seed")]
    rows = [(call, v, message) for call, name, lo, hi in calls
            for _, v, message in int_refusals(name, lo, hi)]
    rows += [(lambda v: disc_frame(sigma=v), v, message)
             for _, v, message in real_refusals("sigma", ">=")]
    for call, v, message in rows:
        with pytest.raises(ValueError, match=re.escape(message)):
            call(v)


CONTAINERS = pytest.mark.parametrize("cls,dtype,channels", [
    (ImageRGB, np.uint8, (3,)), (ImageCbCr, np.uint8, (2,)),
    (ImageGray, np.int32, ())])


@CONTAINERS
def test_container_shape_dtype_and_equality(cls, dtype, channels):
    data = np.arange(3 * 2 * int(np.prod(channels))).reshape((3, 2) + channels)
    img = cls(data[:, ::-1])          # a strided view of int64 values
    assert img.data.dtype == dtype and img.data.flags.c_contiguous
    assert img == cls(data[:, ::-1].copy())
    assert img != cls(data)
    assert img != cls(data[:2])       # another size
    assert img != data[:, ::-1]       # only an image equals an image


@CONTAINERS
def test_container_size_is_the_shape_of_its_pixels(cls, dtype, channels):
    img = cls(np.zeros((3, 2) + channels))
    assert (img.width, img.height) == (2, 3)
    for attr in ("width", "height", "data"):    # the size stays the array's
        with pytest.raises(AttributeError):
            setattr(img, attr, np.zeros((2, 0) + channels))
    # a zero side, a wrong channel count, too few and too many axes
    extra = (channels[0] + 1,) if channels else (1,)
    for shape in [(0, 2) + channels, (3, 0) + channels, (3, 2) + extra,
                  (6,) + channels, (1, 3, 2) + channels]:
        with pytest.raises(ValueError, match=re.escape(
                f"{cls.__name__} needs shape (h >= 1, w >= 1) + {channels}, "
                f"got {shape}")):
            cls(np.zeros(shape, dtype))


@pytest.mark.parametrize("cls,data", [
    (ImageRGB, np.array([[[300, -1, 0]]])),     # held [44, 255, 0] before
    (ImageRGB, np.array([[[1.7, 2.2, 0.0]]])),  # held [1, 2, 0] before
    (ImageGray, np.array([[2 ** 40]])),         # held 0 before
    (ImageCbCr, np.array([[[np.nan, 0.0]]])),
    (ImageCbCr, np.array([[[1e300, 0.0]]])),
    (ImageGray, np.array([[0.5]]))])
def test_container_refuses_a_cast_that_changes_values(cls, data):
    dtype = np.dtype(cls.dtype)
    with pytest.raises(ValueError, match=re.escape(
            f"{cls.__name__} needs values that {dtype} holds; casting the "
            f"{data.dtype} data changes them")):
        cls(data)
    # the same array with every value in range is cast and kept
    kept = cls(np.zeros_like(data) + 7)
    assert kept.data.dtype == dtype and (kept.data == 7).all()


def test_type_checks_of_numbers_live_only_in_the_rule_helpers():
    # `type(v) is int`, `isinstance(v, (int, np.integer))` and the like
    # anywhere in the package but image._int_in and image._finite are the
    # integer or real rule written out again
    homes = {("image.py", "_int_in"), ("image.py", "_finite")}
    numeric = {"int", "bool", "float", "integer", "floating", "number",
               "Integral", "Real", "Number"}

    def is_type_call(node):
        return (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "type")

    def names(nodes):
        return {getattr(n, "id", None) or getattr(n, "attr", None)
                for node in nodes for n in ast.walk(node)}

    found = set()
    for path in sorted(Path(image.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for fn in ast.walk(tree):    # breadth first: the innermost def wins
            if isinstance(fn, ast.FunctionDef):
                owner.update((n, fn.name) for n in ast.walk(fn))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and len(node.args) == 2
                    and getattr(node.func, "id", None) in ("isinstance",
                                                           "issubclass")):
                tested = names(node.args[1:])
            elif isinstance(node, ast.Compare) and any(
                    map(is_type_call, [node.left, *node.comparators])):
                tested = names(n for n in [node.left, *node.comparators]
                               if not is_type_call(n))
            else:
                continue
            if tested & numeric:
                found.add((path.name, owner.get(node), node.lineno))
    assert {(f, fn) for f, fn, _ in found} == homes, sorted(found)
