"""Image containers, PPM (P3/P6) file I/O, and RGB to CbCr by table lookup.

PPM has one grammar, the pattern `_TOKEN`: a token is a run of
non-whitespace bytes after any whitespace and `#` line comments. A P3
payload is read two ways: `_p3_samples` reads the common case, digits
and whitespace only, in one whole-array pass, and hands anything else to
the `_TOKEN` scan, which alone raises. All pixel data lives in numpy
arrays. RGB images are (height, width, 3) uint8, chroma images are
(height, width, 2) uint8 holding (Cb, Cr), and gray images are (height,
width) int32 so they can hold class indices or component ids beyond 255.
"""

import functools
import numbers
import re
import sys
from dataclasses import dataclass

import numpy as np


class PnmError(ValueError):
    """Malformed PPM data; carries the byte offset where parsing failed."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(eq=False)
class _Image:
    """Pixel data as a C-contiguous (height, width) + `channels` array of
    `dtype`; equal to an image of the same type, size and pixels."""
    width: int
    height: int
    data: np.ndarray

    def __post_init__(self):
        _int_in("width", self.width, 1)
        _int_in("height", self.height, 1)
        self.data = np.ascontiguousarray(self.data, dtype=self.dtype)
        shape = (self.height, self.width) + self.channels
        if self.data.shape != shape:
            raise ValueError(f"{type(self).__name__} data shape "
                             f"{self.data.shape} does not match {shape}")

    def __eq__(self, other):
        return (isinstance(other, type(self))
                and self.width == other.width and self.height == other.height
                and np.array_equal(self.data, other.data))


class ImageRGB(_Image):
    dtype, channels = np.uint8, (3,)


class ImageCbCr(_Image):
    dtype, channels = np.uint8, (2,)    # (Cb, Cr)


class ImageGray(_Image):
    dtype, channels = np.int32, ()


def _decimal(tok):
    """The value of a token of 1 to 2000 ASCII digits (`bytes.isdigit`),
    else None. `int` alone also takes a sign and underscores, and past
    2000 digits a frame size of two sides passes the 4300 digits Python
    prints in an error message."""
    return int(tok) if tok.isdigit() and len(tok) <= 2000 else None


def _quote(tok, show=repr):
    """`tok` for an error message: at most 20 bytes, then its length."""
    cut = f"{show(tok[:20])}... ({len(tok)} long)"
    return show(tok) if len(tok) <= 20 else cut


def _int_in(name, v, lo, hi=None):
    """`v` if an int, not a bool or numpy int, in [lo, hi] (hi None: no
    bound); else ValueError `<name> must be an int >= lo` or `in [lo, hi]`."""
    if type(v) is int and lo <= v and (hi is None or v <= hi):
        return v
    bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    raise ValueError(f"{name} must be an int {bound}, "
                     f"got {_quote(repr(v), str)}")


def _finite(name, v, op=">"):
    """`v` if a real number, not a bool, `op` 0 (">" or ">=") and at most
    the largest float; else ValueError `<name> must be finite and <op> 0`."""
    if (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and (v > 0 if op == ">" else v >= 0) and v <= sys.float_info.max):
        return v
    raise ValueError(f"{name} must be finite and {op} 0, "
                     f"got {_quote(repr(v), str)}")


# the grammar: one token and the whitespace and comments before it; the
# empty token means end of data, and a '#' inside a token belongs to it
_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")

# the P3 payload's bytes in `bytes.translate` form: a digit's value, else
# _SPACE for exactly the bytes \s matches, else _OTHER
_SPACE, _OTHER = 10, 11
_P3_BYTES = bytes(b - 48 if 48 <= b <= 57 else _SPACE if bytes([b]).isspace()
                  else _OTHER for b in range(256))


def _p3_samples(raw, pos, n):
    """The P3 payload raw[pos:], 2n - 1 bytes or more, as n uint8 samples
    read whole-array; None unless it is whitespace and n numbers of 1 to 3
    digits up to 255, and then the `_TOKEN` scan reads it and alone raises.
    Temporaries take about 9 B per payload byte at most."""
    c = np.frombuffer(bytes(raw).translate(_P3_BYTES), np.uint8)[pos:]
    if c.max() == _OTHER:
        return None
    d = c < _SPACE
    if (d[:-3] & d[1:-2] & d[2:-1] & d[3:]).any():    # 4 digits in a row
        return None
    # the number ending at each byte, from the place weights of the digit
    # there and of the one or two digits before it in the same run
    x = c * d
    v = x.astype(np.uint16)
    v[1:] += x[:-1] * 10
    x[:-2] *= d[1:-1]           # no hundreds without a tens digit
    v[2:] += x[:-2] * np.uint16(100)
    end = d.copy()              # a digit with no digit after it
    end[:-1] &= ~d[1:]
    if np.count_nonzero(end) != n:
        return None
    samples = np.compress(end, v)
    return samples.astype(np.uint8) if samples.max() <= 255 else None


def load_pnm(raw: bytes) -> ImageRGB:
    """Decode a PPM image (binary P6 or plain P3, maxval 255)."""
    tokens = _TOKEN.finditer(raw)

    def read_int(what):
        m = next(tokens)
        tok, off = m[1], m.start(1)
        value = _decimal(tok)
        if value is None:
            if not tok:
                raise PnmError("unexpected end of header", off)
            raise PnmError(f"invalid {what} {_quote(tok)}", off)
        return value, m

    m = next(tokens)
    magic, off = m[1], m.start(1)
    if not magic:
        raise PnmError("unexpected end of header", off)
    if magic not in (b"P3", b"P6"):
        raise PnmError(f"unsupported magic {_quote(magic)}, expected P3 or P6",
                       off)
    width, wm = read_int("width")
    height, hm = read_int("height")
    maxval, mm = read_int("maxval")
    if width < 1:
        raise PnmError(f"width must be >= 1, got {width}", wm.start(1))
    if height < 1:
        raise PnmError(f"height must be >= 1, got {height}", hm.start(1))
    if maxval != 255:
        raise PnmError(f"only maxval 255 is supported, got "
                       f"{_quote(str(maxval), str)}", mm.start(1))

    n = width * height * 3
    pos = mm.end()
    if magic == b"P6":
        # exactly one whitespace byte separates the header from the payload
        if not bytes(raw[pos:pos + 1]).isspace():
            raise PnmError("missing whitespace after maxval", pos)
        payload = raw[pos + 1:pos + 1 + n]
        if len(payload) < n:
            raise PnmError(f"truncated payload, expected {n} bytes, "
                           f"got {len(payload)}", pos + 1 + len(payload))
        data = np.frombuffer(payload, dtype=np.uint8)
    # every sample but the last needs a digit and a separator, so a header
    # promising more than the payload can hold fails here, before anything
    # is allocated
    elif len(raw) - pos < 2 * n - 1:
        raise PnmError(f"truncated payload, {len(raw) - pos} bytes cannot "
                       f"hold {n} samples", pos)
    elif (data := _p3_samples(raw, pos, n)) is None:
        data = np.empty(n, dtype=np.uint8)
        for i, m in zip(range(n), tokens):
            v = _decimal(m[1])
            if v is None:
                if not m[1]:
                    raise PnmError(f"truncated payload, sample {i} of {n} "
                                   "is missing", m.start(1))
                raise PnmError(f"invalid sample {_quote(m[1])}", m.start(1))
            if v > 255:
                raise PnmError(f"sample {_quote(str(v), str)} out of range "
                               "[0, 255]", m.start(1))
            data[i] = v

    return ImageRGB(width, height, data.reshape(height, width, 3))


def save_pnm(img: ImageRGB) -> bytes:
    """Encode as binary P6, maxval 255."""
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.data.tobytes()


# Full-range BT.601 (JPEG/JFIF) chroma coefficients, in millionths: every
# coefficient is an exact multiple of 1e-6, so the conversion is exact in
# integers.
_CB_COEF = (-168736, -331264, 500000)
_CR_COEF = (500000, -418688, -81312)


def rgb_to_cbcr(img: ImageRGB) -> ImageCbCr:
    """Convert to the two chroma channels, discarding luma.

    Rounds half-up and clamps to [0, 255]; any achromatic pixel (r=g=b)
    maps exactly to (128, 128). Each pixel is a row of `_cbcr_of_differences`.
    """
    r, g, b = (img.data[:, :, i] for i in range(3))
    index = r * np.int32(511) + 130560
    index += b
    index -= g * np.int32(512)
    out = _cbcr_of_differences().take(index, axis=0)
    return ImageCbCr(img.width, img.height, out)


@functools.cache
def _cbcr_of_differences():
    """Read-only (Cb, Cr) uint8 rows at 511 (r-g+255) + (b-g+255): each
    coefficient row sums to zero, so k . rgb = kr (r-g) + kb (b-g). Only
    corners that no RGB input reaches clip at 0."""
    d = np.arange(-255, 256, dtype=np.int32)
    out = np.stack([np.add.outer(kr * d, kb * d + 128_500_000) // 1_000_000
                    for kr, _, kb in (_CB_COEF, _CR_COEF)], axis=-1)
    out = np.clip(out, 0, 255).astype(np.uint8).reshape(-1, 2)
    out.flags.writeable = False
    return out


def cbcr_to_rgb(img: ImageCbCr) -> ImageRGB:
    """Inverse BT.601 at luma 128; used to synthesize RGB test frames.

    Lossy for out-of-gamut chroma (channels clamp), but converting the
    result back with rgb_to_cbcr lands within 1 level of the original
    for in-gamut pixels. Each pixel is a lookup in `_rgb_of_chroma`.
    """
    rgb = _rgb_of_chroma()[img.data[:, :, 0], img.data[:, :, 1]]
    return ImageRGB(img.width, img.height, rgb)


@functools.cache
def _rgb_of_chroma():
    """Read-only (256, 256, 3) uint8 table: the float64 inverse BT.601
    of every (Cb, Cr), rounded half-up and clamped."""
    cb, cr = np.meshgrid(np.arange(256.0) - 128.0, np.arange(256.0) - 128.0,
                         indexing="ij")
    r = 128 + 1.402 * cr
    g = 128 - 0.344136 * cb - 0.714136 * cr
    b = 128 + 1.772 * cb
    out = np.stack([r, g, b], axis=-1)
    out = np.clip(np.floor(out + 0.5), 0, 255).astype(np.uint8)
    out.flags.writeable = False
    return out
