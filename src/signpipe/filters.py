"""The 3x3 window filters and the line-buffered window engine.

`gaussian3x3` (integer binomial smoothing) and `median3x3` (class-index
cleanup) are the production filters: whole-array numpy operations with
edge replication at the borders, so output dimensions match the input.

`stream_window` models the hardware discipline: pixels arrive in raster
order and at most two image rows plus a few shift-register values are
retained, independent of image height. The stream references in
`oracles` run both filters on it, and the tests and `signpipe verify`
hold the production filters to them bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from .image import ImageCbCr, ImageGray

# Binomial 3x3 kernel, row-major; divides by 16 with shifts and adds only.
GAUSSIAN_KERNEL = (1, 2, 1, 2, 4, 2, 1, 2, 1)
GAUSSIAN_DIVISOR = 16


@dataclass(frozen=True)
class Window3x3:
    """Nine cell values in row-major order around a center pixel."""
    cells: tuple
    cx: int
    cy: int


class LineBufferState:
    """Two circulating row buffers plus 3-deep shift registers.

    rows[r % 2] is overwritten in place by row r as it streams in; the
    value it held (row r-2) is read into the shift registers first, so
    total retained state is 2*width values plus three 3-value registers.
    """

    def __init__(self, width):
        self.width = width
        self.rows = [[0] * width, [0] * width]
        self.top3 = []  # last <=3 values of the row two above the incoming one
        self.mid3 = []  # last <=3 values of the row above the incoming one
        self.bot3 = []  # last <=3 incoming values
        self.cursor = 0  # pixels accepted so far

    def retained(self):
        return 2 * self.width + len(self.top3) + len(self.mid3) + len(self.bot3)

    def push(self, x, r, value, write=True):
        top = self.rows[r % 2][x]       # row r-2, read before overwrite
        mid = self.rows[(r + 1) % 2][x]  # row r-1
        if write:
            self.rows[r % 2][x] = value
            self.cursor += 1
        for reg, v in ((self.top3, top), (self.mid3, mid), (self.bot3, value)):
            reg.append(v)
            if len(reg) > 3:
                reg.pop(0)

    def clear_registers(self):
        self.top3.clear()
        self.mid3.clear()
        self.bot3.clear()


def _reg_cols(reg, right_edge):
    # Registers hold the last up-to-3 column values ending at the current x.
    # Normal emission centers on x-1 (cols x-2, x-1, x); the right-edge
    # emission centers on x itself and replicates the last column.
    if right_edge:
        a = reg[-2] if len(reg) >= 2 else reg[-1]
        return (a, reg[-1], reg[-1])
    if len(reg) >= 3:
        return (reg[-3], reg[-2], reg[-1])
    return (reg[0], reg[0], reg[-1])  # left edge: replicate column 0


def stream_window(width, height, pixels):
    """Yield one Window3x3 per pixel of a raster-order stream.

    Emits exactly width*height windows in raster order. Raises ValueError
    if the stream length does not match width*height.
    """
    if width < 1 or height < 1:
        raise ValueError(f"bad dimensions {width}x{height}")
    state = LineBufferState(width)
    it = iter(pixels)

    def take():
        try:
            return next(it)
        except StopIteration:
            raise ValueError(
                f"stream-length mismatch: expected {width * height} pixels, "
                f"got {state.cursor}") from None

    def emit(cx, cy, right_edge=False):
        # cy == 0 has no row above: replicate the middle row upward
        top = state.mid3 if cy == 0 else state.top3
        cells = (_reg_cols(top, right_edge)
                 + _reg_cols(state.mid3, right_edge)
                 + _reg_cols(state.bot3, right_edge))
        return Window3x3(cells, cx, cy)

    for r in range(height):
        state.clear_registers()
        for x in range(width):
            state.push(x, r, take())
            if r >= 1 and x >= 1:
                yield emit(x - 1, r - 1)
        if r >= 1:
            yield emit(width - 1, r - 1, right_edge=True)

    # bottom flush: virtual row `height` replicates the last row
    state.clear_registers()
    r = height
    for x in range(width):
        bottom = state.rows[(r + 1) % 2][x]  # row height-1, replicated
        state.push(x, r, bottom, write=False)
        if x >= 1:
            yield emit(x - 1, height - 1)
    yield emit(width - 1, height - 1, right_edge=True)

    try:
        next(it)
    except StopIteration:
        return
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
