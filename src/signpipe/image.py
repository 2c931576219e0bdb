"""Image containers, PPM (P3/P6) file I/O, and RGB to CbCr conversion.

All pixel data lives in numpy arrays. RGB images are (height, width, 3)
uint8, chroma images are (height, width, 2) uint8 holding (Cb, Cr), and
gray images are (height, width) int32 so they can hold class indices or
component ids beyond 255.
"""

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
        if self.width < 1 or self.height < 1:
            raise ValueError(f"image dimensions must be >= 1, "
                             f"got {self.width}x{self.height}")
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
    """The value of a token of ASCII decimal digits, else None.

    Netpbm numbers are digits only; `int` alone also takes a sign and
    underscores, and raises ValueError past 4300 digits."""
    if tok.isdigit():  # bytes.isdigit is ASCII-only
        try:
            return int(tok)
        except ValueError:
            pass
    return None


def load_pnm(raw: bytes) -> ImageRGB:
    """Decode a PPM image (binary P6 or plain P3, maxval 255)."""
    pos = 0

    def skip_ws():
        # whitespace and '#' comments are interchangeable between tokens
        nonlocal pos
        while pos < len(raw):
            c = raw[pos:pos + 1]
            if c.isspace():
                pos += 1
            elif c == b"#":
                while pos < len(raw) and raw[pos:pos + 1] != b"\n":
                    pos += 1
            else:
                return

    def read_token():
        """The next token and its offset; an empty token at end of data."""
        nonlocal pos
        skip_ws()
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        return raw[start:pos], start

    magic, off = read_token()
    if not magic:
        raise PnmError("unexpected end of header", off)
    if magic not in (b"P3", b"P6"):
        raise PnmError(f"unsupported magic {magic!r}, expected P3 or P6", off)

    def read_int(what):
        tok, off = read_token()
        value = _decimal(tok)
        if value is None:
            if not tok:
                raise PnmError("unexpected end of header", off)
            raise PnmError(f"invalid {what} {tok!r}", off)
        return value, off

    width, woff = read_int("width")
    height, hoff = read_int("height")
    maxval, moff = read_int("maxval")
    if width < 1:
        raise PnmError(f"width must be >= 1, got {width}", woff)
    if height < 1:
        raise PnmError(f"height must be >= 1, got {height}", hoff)
    if maxval != 255:
        raise PnmError(f"only maxval 255 is supported, got {maxval}", moff)

    n = width * height * 3
    if magic == b"P6":
        # exactly one whitespace byte separates the header from the payload
        if pos >= len(raw) or not raw[pos:pos + 1].isspace():
            raise PnmError("missing whitespace after maxval", pos)
        pos += 1
        payload = raw[pos:pos + n]
        if len(payload) < n:
            raise PnmError(f"truncated payload, expected {n} bytes, "
                           f"got {len(payload)}", pos + len(payload))
        data = np.frombuffer(payload, dtype=np.uint8)
    else:
        # every sample but the last needs a digit and a separator, so a
        # header promising more than the payload can hold fails here,
        # before anything is allocated
        if len(raw) - pos < 2 * n - 1:
            raise PnmError(f"truncated payload, {len(raw) - pos} bytes cannot "
                           f"hold {n} samples", pos)
        values = np.empty(n, dtype=np.uint8)
        for i in range(n):
            tok, off = read_token()
            v = _decimal(tok)
            if v is None:
                if not tok:
                    raise PnmError(f"truncated payload, sample {i} of {n} "
                                   "is missing", off)
                raise PnmError(f"invalid sample {tok!r}", off)
            if v > 255:
                raise PnmError(f"sample {v} out of range [0, 255]", off)
            values[i] = v
        data = values

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
    maps exactly to (128, 128).
    """
    r, g, b = (img.data[:, :, i] for i in range(3))
    out = np.empty((img.height, img.width, 2), dtype=np.uint8)
    for ch, (kr, kg, kb) in enumerate((_CB_COEF, _CR_COEF)):
        # 128 + round-half-up(k . rgb / 1e6); |k . rgb| <= 127.5e6, so
        # the sum is positive and only the top needs clamping
        v = r * np.int32(kr)
        v += g * np.int32(kg)
        v += b * np.int32(kb)
        v += 128_500_000
        v //= 1_000_000
        out[:, :, ch] = np.minimum(v, 255, out=v)
    return ImageCbCr(img.width, img.height, out)


def cbcr_to_rgb(img: ImageCbCr, luma: int = 128) -> ImageRGB:
    """Inverse BT.601 at a fixed luma; used to synthesize RGB test frames.

    Lossy for out-of-gamut chroma (channels clamp), but converting the
    result back with rgb_to_cbcr lands within 1 level of the original
    for in-gamut pixels.
    """
    cb = img.data[:, :, 0].astype(np.float64) - 128.0
    cr = img.data[:, :, 1].astype(np.float64) - 128.0
    r = luma + 1.402 * cr
    g = luma - 0.344136 * cb - 0.714136 * cr
    b = luma + 1.772 * cb
    out = np.stack([r, g, b], axis=-1)
    out = np.clip(np.floor(out + 0.5), 0, 255).astype(np.uint8)
    return ImageRGB(img.width, img.height, out)
