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
class ImageRGB:
    width: int
    height: int
    data: np.ndarray  # (height, width, 3) uint8

    def __post_init__(self):
        _check_dims(self.width, self.height)
        self.data = np.ascontiguousarray(self.data, dtype=np.uint8)
        if self.data.shape != (self.height, self.width, 3):
            raise ValueError(f"RGB data shape {self.data.shape} does not match "
                             f"{self.height}x{self.width}x3")

    def __eq__(self, other):
        return (isinstance(other, ImageRGB)
                and self.width == other.width and self.height == other.height
                and np.array_equal(self.data, other.data))

    def copy(self):
        return ImageRGB(self.width, self.height, self.data.copy())


@dataclass(eq=False)
class ImageCbCr:
    width: int
    height: int
    data: np.ndarray  # (height, width, 2) uint8, channels (Cb, Cr)

    def __post_init__(self):
        _check_dims(self.width, self.height)
        self.data = np.ascontiguousarray(self.data, dtype=np.uint8)
        if self.data.shape != (self.height, self.width, 2):
            raise ValueError(f"CbCr data shape {self.data.shape} does not match "
                             f"{self.height}x{self.width}x2")

    def __eq__(self, other):
        return (isinstance(other, ImageCbCr)
                and self.width == other.width and self.height == other.height
                and np.array_equal(self.data, other.data))


@dataclass(eq=False)
class ImageGray:
    width: int
    height: int
    data: np.ndarray  # (height, width) int32

    def __post_init__(self):
        _check_dims(self.width, self.height)
        self.data = np.ascontiguousarray(self.data, dtype=np.int32)
        if self.data.shape != (self.height, self.width):
            raise ValueError(f"gray data shape {self.data.shape} does not match "
                             f"{self.height}x{self.width}")

    def __eq__(self, other):
        return (isinstance(other, ImageGray)
                and self.width == other.width and self.height == other.height
                and np.array_equal(self.data, other.data))


def _check_dims(width, height):
    if width < 1 or height < 1:
        raise ValueError(f"image dimensions must be >= 1, got {width}x{height}")


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
        nonlocal pos
        skip_ws()
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        if pos == start:
            raise PnmError("unexpected end of header", start)
        return raw[start:pos], start

    magic, off = read_token()
    if magic not in (b"P3", b"P6"):
        raise PnmError(f"unsupported magic {magic!r}, expected P3 or P6", off)

    def read_int(what):
        tok, off = read_token()
        try:
            return int(tok), off
        except ValueError:
            raise PnmError(f"invalid {what} {tok!r}", off) from None

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
            v, off = read_int("sample")
            if not 0 <= v <= 255:
                raise PnmError(f"sample {v} out of range [0, 255]", off)
            values[i] = v
        data = values

    return ImageRGB(width, height, data.reshape(height, width, 3))


def save_pnm(img: ImageRGB) -> bytes:
    """Encode as binary P6, maxval 255."""
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.data.tobytes()


# Full-range BT.601 (JPEG/JFIF) chroma coefficients.
_CB_COEF = np.array([-0.168736, -0.331264, 0.5])
_CR_COEF = np.array([0.5, -0.418688, -0.081312])


def rgb_to_cbcr(img: ImageRGB) -> ImageCbCr:
    """Convert to the two chroma channels, discarding luma.

    Rounds half-up and clamps to [0, 255]; any achromatic pixel (r=g=b)
    maps exactly to (128, 128).
    """
    rgb = img.data.astype(np.float64)
    cb = 128.0 + rgb @ _CB_COEF
    cr = 128.0 + rgb @ _CR_COEF
    out = np.stack([cb, cr], axis=-1)
    out = np.clip(np.floor(out + 0.5), 0, 255).astype(np.uint8)
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
