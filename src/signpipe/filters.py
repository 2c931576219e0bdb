"""The 3x3 window filters and the line-buffered window engine.

`gaussian3x3` (integer binomial smoothing) and `median3x3` (class-index
cleanup) are the production filters: whole-array numpy operations with
edge replication at the borders, so output dimensions match the input.

`stream_window` models the hardware discipline: pixels arrive in raster
order and only two image rows plus a 3x3 window register are retained,
independent of image height. The stream references in `oracles` run
both filters on it, and the tests and `signpipe verify` hold the
production filters to them bit for bit.
"""

import numpy as np

from .image import ImageCbCr, ImageGray, _int_in

# Binomial 3x3 kernel, row-major; divides by 16 with shifts and adds only.
GAUSSIAN_KERNEL = (1, 2, 1, 2, 4, 2, 1, 2, 1)
GAUSSIAN_DIVISOR = 16


class LineBufferState:
    """Two circulating row buffers and one 3x3 window register.

    rows[r % 2] is overwritten in place by row r as it streams in; the
    value it held (row r-2) is read first. Each pixel shifts one column
    (rows r-2, r-1, r) into the window, a row-major 9-tuple, so the
    retained state is 2*width row values plus nine, whatever the width.
    """

    def __init__(self, width):
        self.width = width
        self.rows = [[0] * width, [0] * width]
        self.window = ()  # empty until column 0 loads it

    def retained(self):
        return 2 * self.width + len(self.window)

    def column(self, x, r):
        """Rows r-2 and r-1 at x; the row-1 pass replicates row 0 upward."""
        mid = self.rows[(r + 1) % 2][x]
        return (self.rows[r % 2][x] if r > 1 else mid), mid

    def shift(self, top, mid, bottom, load=False):
        """Shift one column in; `load` (the left edge) fills all three."""
        if load:
            self.window = (top,) * 3 + (mid,) * 3 + (bottom,) * 3
        else:
            w = self.window
            self.window = (w[1], w[2], top, w[4], w[5], mid, w[7], w[8], bottom)

    def push(self, x, r, value):
        """Shift in pixel x of row r with the two above it, then store it."""
        self.shift(*self.column(x, r), value, load=x == 0)
        self.rows[r % 2][x] = value


_END = object()


def stream_window(width, height, pixels):
    """Yield each pixel's 3x3 window, a row-major 9-tuple with the edges
    replicated, in raster order. Row r's windows leave one column behind
    row r+1's pass, and the row end shifts the last column in once more.
    Raises ValueError unless the stream holds width*height pixels.
    """
    _int_in("width", width, 1)
    _int_in("height", height, 1)
    state = LineBufferState(width)
    it = iter(pixels)
    for r in range(height + 1):
        for x in range(width):
            if r < height:
                value = next(it, _END)
                if value is _END:
                    raise ValueError(
                        f"stream-length mismatch: expected {width * height} "
                        f"pixels, got {r * width + x}")
                state.push(x, r, value)
            else:  # flush: replay row height-1 below itself, write nothing
                top, mid = state.column(x, r)
                state.shift(top, mid, mid, load=x == 0)
            if r and x:
                yield state.window
        if r:
            state.shift(*state.window[2::3])  # right edge: last column again
            yield state.window
    if next(it, _END) is not _END:
        raise ValueError(f"stream-length mismatch: expected {width * height} "
                         f"pixels, got more")


def _sum3x3(padded, mid):
    """Weighted sum over every 3x3 window of an edge-padded array.

    The weights are the outer product of (1, mid, 1) with itself, applied
    as a vertical then a horizontal pass; the result drops the one-pixel
    pad, so (H+2, W+2, ...) becomes (H, W, ...).
    """
    rows = padded[:-2] + mid * padded[1:-1] + padded[2:]
    return rows[:, :-2] + mid * rows[:, 1:-1] + rows[:, 2:]


def gaussian3x3(img: ImageCbCr) -> ImageCbCr:
    """Smooth both chroma channels with the binomial kernel / 16.

    GAUSSIAN_KERNEL is (1, 2, 1) times its transpose, so the 9-tap sum
    is computed as two 3-tap passes; int16 holds the largest sum, 16*255.
    """
    padded = np.pad(img.data.astype(np.int16), ((1, 1), (1, 1), (0, 0)),
                    mode="edge")
    acc = _sum3x3(padded, 2)
    out = (acc + GAUSSIAN_DIVISOR // 2) >> 4  # divide by 16, round half-up
    return ImageCbCr(img.width, img.height, out.astype(np.uint8))


def median3x3(labels: ImageGray) -> ImageGray:
    """Exact median of each 3x3 window of class indices.

    The median of nine values is the smallest k with at least five of
    them <= k, so the output starts at the image minimum and rises by one
    for every level k whose window count of values <= k is below five.
    One pass per level between the minimum and the maximum: cheap for
    class indices, slow for planes spanning a wide range of values.
    """
    data = labels.data
    lo, hi = int(data.min()), int(data.max())
    padded = np.pad(data, 1, mode="edge")
    out = np.full(data.shape, lo, dtype=np.int32)
    for k in range(lo, hi):
        out += _sum3x3((padded <= k).view(np.uint8), 1) < 5
    return ImageGray(labels.width, labels.height, out)
