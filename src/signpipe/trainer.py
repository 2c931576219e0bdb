"""Mean-shift clustering over chroma samples to train class centers.

Flat-kernel mode seeking (Comaniciu & Meer, TPAMI 2002): every seed, one
sample in `seed_stride`, moves to the mean of the samples within the
bandwidth radius until the shift is below `TOLERANCE` or for
`MAX_ITERATIONS` steps, then convergence points within half the bandwidth
collapse into modes. Features are normalized to [0, 1] before the
bandwidth applies, so the bandwidth is dimensionless.

Chroma is 8-bit, so a seed's path depends only on its value: `converge`
steps the distinct seed values at once, a block at a time, taking a step
once per distinct point. A step sums from prefix sums of the 256x256
count grid along each Cb row, a summed-area table (Crow, SIGGRAPH 1984)
one row at a time: the levels within the bandwidth on a row are one run,
as the per-seed loop's distance only grows away from the point, and a
run sums exactly (integers below 2**53) in two lookups. The circle places
each run's ends and the loop's own float test moves them until it agrees,
so a step costs a few operations per row, whatever the number of distinct
values.

A flat kernel's step depends only on which samples fall inside the
radius. The runs select exactly the samples the per-seed loop's float
distance test selects, and a step is their exact mean: the integer sums
over the count, over 255. `oracles.loop_converge`, the per-seed loop kept
as the reference, takes the same mean of the same samples, so both take
the same steps, stop at the same step and return the same convergence
points bit for bit, on every input.

The merge is greedy over the seeds in sample order, so deterministic for
a fixed sample order and seed stride. A point joins the first mode with
`math.hypot(...) <= merge_radius`, which does not underflow as a squared
distance can; `oracles.loop_merge_modes` makes the same test and takes the
same running means, so the two return the same modes and support bit for
bit, on every input.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .image import _finite, _int_in, _kind
from .mdc import ClassCenterFile, _centers_json, centers_to_json

# a step's (points x rows) arrays hold at most 2 * _BLOCK elements of 8
# bytes: 4 MB, whatever the sample count
_BLOCK = 1 << 18

# level / 255.0, as the per-seed loop divides; -1 and 256 are infinitely far
_LEVEL = np.append(np.arange(256) / 255.0, np.inf)

# a seed stops once its step moves it less than this, in normalized units,
# or after MAX_ITERATIONS steps
TOLERANCE = 1e-4
MAX_ITERATIONS = 500


@dataclass
class MeanShiftConfig:
    bandwidth: float = 0.05
    seed_stride: int = 4

    def __post_init__(self):
        self.bandwidth = bw = _finite("bandwidth", self.bandwidth)
        if bw * bw > sys.float_info.max:  # converge squares it; ints exactly
            raise ValueError(f"bandwidth must be finite and > 0, got {bw}; "
                             f"its square must be finite too")
        _int_in("seed_stride", self.seed_stride, 1)


@dataclass
class ClusterResult:
    modes: list      # [(cb, cr)] in 0..255 integer space
    support: list    # converged-seed count per mode

    def __post_init__(self):
        if len(self.modes) != len(self.support):
            raise ValueError("modes and support lengths differ")


def mean_shift(samples, config: MeanShiftConfig) -> ClusterResult:
    """Cluster (Cb, Cr) samples; returns modes sorted by descending support."""
    return merge_modes(converge(samples, config), config.bandwidth / 2)


def converge(samples, config: MeanShiftConfig) -> np.ndarray:
    """Convergence point of every seed, in seed order, normalized to [0, 1].

    Samples must be integer (Cb, Cr) values in [0, 255].
    """
    _kind("config", config, MeanShiftConfig, "a MeanShiftConfig")
    pts = np.asarray(samples, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] != 2:
        raise ValueError("samples must be a non-empty list of (Cb, Cr) pairs")
    if not ((pts >= 0) & (pts <= 255) & (pts == np.floor(pts))).all():
        raise ValueError("samples must be integer (Cb, Cr) values in [0, 255]")
    keys = (pts[:, 0] * 256 + pts[:, 1]).astype(np.intp)
    seeds, seed_slot = np.unique(keys[::config.seed_stride],
                                 return_inverse=True)
    # prefix sums, after a zero, of count, count*Cb and count*Cr over the
    # cells 256*Cb + Cr - base; clipped to its ends, cum reads past them
    row, base = keys >> 8, int(keys.min())
    cell = keys - base
    cum = np.zeros((3, int(cell.max()) + 2))
    for out, weight in zip(cum, (None, row, keys & 255)):
        np.cumsum(np.bincount(cell, weight), out=out[1:])
    bw2 = config.bandwidth ** 2
    reach = min(256, math.ceil(255 * float(config.bandwidth)))
    span = min(256, 2 * reach + 3)    # the Cb rows a point can reach
    y = np.column_stack([seeds >> 8, seeds & 255]) / 255.0
    # a step holds at most 10 (points x span) arrays of 8 bytes at once
    rows = max(1, min(len(seeds), 2 * _BLOCK // (10 * span)))
    for lo in range(0, len(seeds), rows):
        active = np.arange(lo, min(lo + rows, len(seeds)))
        for _ in range(MAX_ITERATIONS):
            # seeds at the same point take the same step: take it once.
            # Each (cb, cr) row is one complex value to np.unique, which
            # sorts and compares it as the pair, 6x faster than axis=0
            p, inv = np.unique(y[active].view(np.complex128).reshape(-1),
                               return_inverse=True)
            p = p.view(np.float64).reshape(-1, 2)
            start, stop = _runs(p, bw2, reach, span, base)
            sums = np.column_stack([(c.take(stop, mode="clip")
                                     - c.take(start, mode="clip")).sum(axis=1)
                                    for c in cum])
            n = sums[:, :1]
            new = np.where(n > 0, sums[:, 1:] / np.maximum(n, 1) / 255.0, p)
            shift = np.hypot(*(new - p).T)
            last = shift < TOLERANCE
            y[active] = new[inv]
            active = active[~last[inv]]
            if not len(active):
                break
    return y[seed_slot]


def _runs(p, bw2, reach, span, base):
    """Each point's neighborhood as one run of cells [start, stop) of
    256*Cb + Cr - base on each of the `span` Cb rows from `first` on."""
    p0, p1 = p[:, :1], p[:, 1:]
    first = np.clip(np.floor(p0[:, 0] * 255) - (reach + 1), 0,
                    256 - span).astype(np.intp)
    dcb2 = np.square(_LEVEL.take(first[:, None] + np.arange(span)) - p0)
    out = np.array([-1, 1])[:, None, None]
    # each run's first and last level (last < first: empty) from the
    # circle, rounded inward, clipped as floats: a huge bandwidth fits no int
    bounds = out * np.floor(
        (out * p1 + np.sqrt(np.maximum(float(bw2) - dcb2, 0))) * 255)
    bounds = np.clip(bounds, 0, 255, out=bounds).astype(np.intp)

    def d2(shift):    # the per-seed loop's distance, in its order
        d = _LEVEL.take(bounds + shift) - p1
        return np.square(d, out=d) + dcb2

    # each end moves out while the next level out is inside, then in
    while (move := d2(out) <= bw2).any():
        bounds += out * move
    while (move := (bounds[0] <= bounds[1]) & (d2(0) > bw2)).any():
        bounds -= out * move
    np.maximum(bounds[0], bounds[1] + 1, out=bounds[1])
    bounds += ((first[:, None] + np.arange(span)) << 8) - base
    return bounds[0], bounds[1]


def merge_modes(converged, merge_radius) -> ClusterResult:
    """Greedy merge of convergence points within the merge radius, in
    seed order, support-weighted so dense basins dominate the mode
    position."""
    modes = []    # normalized running means, (cb, cr) float pairs
    support = []
    for y0, y1 in np.asarray(converged).tolist():
        for k, (m0, m1) in enumerate(modes):
            if math.hypot(y0 - m0, y1 - m1) <= merge_radius:
                s = support[k]
                modes[k] = ((m0 * s + y0) / (s + 1), (m1 * s + y1) / (s + 1))
                support[k] = s + 1
                break
        else:
            modes.append((y0, y1))
            support.append(1)

    order = sorted(range(len(modes)), key=lambda k: (-support[k], modes[k]))
    out_modes = [tuple(math.floor(v * 255.0 + 0.5) for v in modes[k])
                 for k in order]
    return ClusterResult(out_modes, [support[k] for k in order])


def centers_to_file(result: ClusterResult, names) -> str:
    """Serialize trained modes as an 8-bit classifier center-file JSON;
    with no names, class j is `class<j>`.

    Class order follows the result's descending-support order (ties break
    by ascending Cb, then Cr). The modes pass `ClassCenterFile`'s rules,
    but one mode alone, which `perfbench/worker.py`'s uniform warm-up
    frame trains to, is still written, as a file no reader accepts."""
    if len(result.modes) == 1 and (not names or len(names) == 1):
        return _centers_json(names, result.modes, 8)
    return centers_to_json(ClassCenterFile.from_centers(
        result.modes, names=names or None))
