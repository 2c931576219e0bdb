"""Reference implementations for cross-checking the production stages.

Each is built on a different algorithm from the code it checks, so that
agreement is verification rather than shared code agreeing with itself:

- `flood_fill_label`: a per-pixel stack-based flood fill, against the
  run-based labeler of `ccl.label_components`;
- `stream_gaussian3x3` and `stream_median3x3`: the hardware-faithful
  filters, one window per pixel off `filters.stream_window` (two rows
  plus a 3x3 window register), against the whole-array numpy filters;
- `scalar_classify_image`: the scalar `mdc.classify` once per distinct
  (Cb, Cr) value, against the lookup table of `mdc.classify_image`;
- `loop_converge`: mean shift one seed at a time, each step scanning every
  sample, against the trainer's batched steps over distinct chroma values.

The classifier's per-vector references live in `mdc`: the scalar
`classify`, one argmin per feature vector for any D, and
`simulate_pipeline`, the cycle model's per-dimension accumulate and
pairwise `<=` tree. Each checks the 65,536-entry lookup table of
`classify_image`, and the two check each other for any D.
"""

import numpy as np

from .ccl import ComponentFeatures
from .filters import GAUSSIAN_DIVISOR, GAUSSIAN_KERNEL, stream_window
from .image import ImageCbCr, ImageGray
from .mdc import classify
from .trainer import TOLERANCE


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
    windows = stream_window(w, h, plane.reshape(-1).tolist())
    return np.fromiter(map(window_fn, windows), dtype=np.int64,
                       count=h * w).reshape(h, w)


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


def scalar_classify_image(centers, chroma: ImageCbCr) -> ImageGray:
    """The scalar `mdc.classify` once per distinct 16-bit (Cb << 8) | Cr
    key, the same contract as `mdc.classify_image`."""
    keys, inverse = np.unique((chroma.data[:, :, 0].astype(np.intp) << 8)
                              | chroma.data[:, :, 1], return_inverse=True)
    labels = np.array([classify(centers, divmod(k, 256))
                       for k in keys.tolist()])
    return ImageGray(chroma.width, chroma.height,
                     labels[inverse].reshape(chroma.height, chroma.width))


def loop_converge(samples, config):
    """Flat-kernel mean shift one seed at a time; each step scans every
    sample. Returns the convergence points in seed order, normalized, the
    same contract as `trainer.converge`."""
    pts = np.asarray(samples, dtype=np.float64)
    pts = pts / 255.0
    seeds = pts[::config.seed_stride]

    converged = np.empty_like(seeds)
    for i, seed in enumerate(seeds):
        y = seed
        for _ in range(config.max_iterations):
            d2 = ((pts - y) ** 2).sum(axis=1)
            inside = pts[d2 <= config.bandwidth ** 2]
            new = inside.mean(axis=0) if len(inside) else y
            shift = np.hypot(*(new - y))
            y = new
            if shift < TOLERANCE:
                break
        converged[i] = y
    return converged
