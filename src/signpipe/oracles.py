"""Reference implementations for cross-checking the production stages.

Each is built on a different algorithm from the code it checks, so that
agreement is verification rather than shared code agreeing with itself:

- `naive_classify`: a full-scan argmin per feature vector, against the
  vectorized lookup table of `mdc.classify_image`;
- `flood_fill_label`: a per-pixel stack-based flood fill, against the
  run-based labeler of `ccl.label_components`;
- `stream_gaussian3x3` and `stream_median3x3`: the hardware-faithful
  filters, one window per pixel off the two-row line buffer of
  `filters.stream_window`, against the whole-array numpy filters.
"""

import numpy as np

from .ccl import ComponentFeatures
from .filters import GAUSSIAN_DIVISOR, GAUSSIAN_KERNEL, stream_window
from .image import ImageCbCr, ImageGray


def naive_classify(centers, x):
    """Full-scan argmin of Manhattan distance; ties to the smallest index."""
    best, best_d = 0, None
    for j, u in enumerate(centers):
        d = sum(abs(a - b) for a, b in zip(x, u))
        if best_d is None or d < best_d:
            best, best_d = j, d
    return best


def flood_fill_label(seg: ImageGray, skip=frozenset()):
    """Stack-based 4-connected flood fill, scanning in raster order.

    Returns (ImageGray of component ids 1..N, list of ComponentFeatures),
    the same contract as `ccl.label_components`.
    """
    h, w = seg.height, seg.width
    src = seg.data
    labels = np.zeros((h, w), dtype=np.int32)
    feats = []
    next_id = 1
    for sy in range(h):
        for sx in range(w):
            if labels[sy, sx] != 0 or src[sy, sx] in skip:
                continue
            c = int(src[sy, sx])
            acc = ComponentFeatures(c, 0, sx, sy, sx, sy, 0, 0)
            stack = [(sx, sy)]
            labels[sy, sx] = next_id
            while stack:
                x, y = stack.pop()
                acc.area += 1
                acc.min_x = min(acc.min_x, x)
                acc.min_y = min(acc.min_y, y)
                acc.max_x = max(acc.max_x, x)
                acc.max_y = max(acc.max_y, y)
                acc.sum_x += x
                acc.sum_y += y
                for nx, ny in ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)):
                    if (0 <= nx < w and 0 <= ny < h and labels[ny, nx] == 0
                            and src[ny, nx] == c):
                        labels[ny, nx] = next_id
                        stack.append((nx, ny))
            feats.append(acc)
            next_id += 1
    return ImageGray(w, h, labels), feats


def _stream_filter_plane(plane, window_fn):
    h, w = plane.shape
    out = np.empty((h, w), dtype=np.int64)
    flat = out.reshape(-1)
    for i, win in enumerate(stream_window(w, h, plane.reshape(-1).tolist())):
        flat[i] = window_fn(win.cells)
    return out


def _gaussian_cell(cells):
    acc = 0
    for c, k in zip(cells, GAUSSIAN_KERNEL):
        acc += c * k
    return (acc + GAUSSIAN_DIVISOR // 2) >> 4  # divide by 16, round half-up


def stream_gaussian3x3(img: ImageCbCr) -> ImageCbCr:
    """The Gaussian filter one window at a time off the line buffer."""
    out = np.empty_like(img.data)
    for ch in range(2):
        out[:, :, ch] = _stream_filter_plane(
            img.data[:, :, ch].astype(np.int64), _gaussian_cell)
    return ImageCbCr(img.width, img.height, out)


def _median_cell(cells):
    return sorted(cells)[4]


def stream_median3x3(labels: ImageGray) -> ImageGray:
    """The median filter one window at a time off the line buffer,
    sorting each window."""
    out = _stream_filter_plane(labels.data, _median_cell)
    return ImageGray(labels.width, labels.height, out)
