"""Reference implementations for cross-checking the production stages.

Each is built on a different algorithm from the code it checks, so that
agreement is verification rather than shared code agreeing with itself:

- `dot_rgb_to_cbcr`: the BT.601 millionths dot product of each pixel,
  against the (r-g, b-g) table lookup of `image.rgb_to_cbcr`;
- `flood_fill_label`: a per-pixel stack-based flood fill, against the
  run-based labeler of `ccl.label_components`;
- `stream_gaussian3x3` and `stream_median3x3`: the hardware-faithful
  filters, one window per pixel off `filters.stream_window` (two rows
  plus a 3x3 window register), against the whole-array numpy filters;
- `scalar_classify_image`: the scalar `mdc.classify` once per distinct
  (Cb, Cr) value, against the lookup table of `mdc.classify_image`;
- `loop_converge`: mean shift one seed at a time, each step scanning every
  sample, against the trainer's batched steps over distinct chroma values;
- `loop_merge_modes`: the greedy merge over numpy rows and running means,
  against `trainer.merge_modes` over Python floats; both decide with
  `math.hypot(...) <= merge_radius`, so they agree bit for bit.

The classifier's per-vector references live in `mdc`: the scalar
`classify`, one argmin per feature vector for any D, and
`simulate_pipeline`, the cycle model's per-dimension accumulate and
pairwise `<=` tree. Each checks the 65,536-entry lookup table of
`classify_image`, and the two check each other for any D.
"""

import math

import numpy as np

from . import trainer
from .ccl import ComponentFeatures
from .filters import GAUSSIAN_DIVISOR, GAUSSIAN_KERNEL, stream_window
from .image import (_CB_COEF, _CR_COEF, ImageCbCr, ImageClass, ImageGray,
                    ImageRGB)
from .mdc import classify


def flood_fill_label(seg: ImageClass, skip=frozenset()):
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
            acc = ComponentFeatures(next_id, c, 0, sx, sy, sx, sy, 0, 0)
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
    return ImageGray(labels), feats


def dot_rgb_to_cbcr(img: ImageRGB) -> ImageCbCr:
    """`image.rgb_to_cbcr` as the millionths dot product of each pixel."""
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
    return ImageCbCr(out)


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
    return ImageCbCr(out)


def _median_cell(cells):
    return sorted(cells)[4]


def stream_median3x3(labels: ImageClass) -> ImageClass:
    """The median filter one window at a time off the line buffer,
    sorting each window; an image of the type given."""
    out = _stream_filter_plane(labels.data, _median_cell)
    return type(labels)(out)


def scalar_classify_image(centers, chroma: ImageCbCr) -> ImageClass:
    """The scalar `mdc.classify` once per distinct 16-bit (Cb << 8) | Cr
    key, the same contract as `mdc.classify_image`."""
    keys, inverse = np.unique((chroma.data[:, :, 0].astype(np.intp) << 8)
                              | chroma.data[:, :, 1], return_inverse=True)
    labels = np.array([classify(centers, divmod(k, 256))
                       for k in keys.tolist()])
    return ImageClass(labels[inverse].reshape(chroma.height, chroma.width))


def loop_converge(samples, config):
    """Flat-kernel mean shift one seed at a time; each step scans every
    sample and moves to the exact mean of those its float distance test
    keeps. Returns the convergence points in seed order, normalized, the
    same contract as `trainer.converge`."""
    levels = np.asarray(samples, dtype=np.float64)
    pts = levels / 255.0
    seeds = pts[::config.seed_stride]

    converged = np.empty_like(seeds)
    for i, seed in enumerate(seeds):
        y = seed
        for _ in range(trainer.MAX_ITERATIONS):
            d2 = ((pts - y) ** 2).sum(axis=1)
            inside = levels[d2 <= config.bandwidth ** 2]
            new = inside.sum(axis=0) / len(inside) / 255.0 if len(inside) else y
            shift = np.hypot(*(new - y))
            y = new
            if shift < trainer.TOLERANCE:
                break
        converged[i] = y
    return converged


def loop_merge_modes(converged, merge_radius):
    """Greedy merge of convergence points over numpy rows, the same
    contract as `trainer.merge_modes`."""
    modes = []    # normalized running means
    support = []
    for y in converged:
        for k, m in enumerate(modes):
            if math.hypot(*(y - m)) <= merge_radius:
                modes[k] = (m * support[k] + y) / (support[k] + 1)
                support[k] += 1
                break
        else:
            modes.append(y.copy())
            support.append(1)

    order = sorted(range(len(modes)),
                   key=lambda k: (-support[k], modes[k][0], modes[k][1]))
    out_modes = [tuple(int(np.floor(v * 255.0 + 0.5)) for v in modes[k])
                 for k in order]
    return trainer.ClusterResult(out_modes, [support[k] for k in order])
