"""Mean-shift clustering over chroma samples to train class centers.

Flat-kernel mode seeking (Comaniciu & Meer, TPAMI 2002): every seed, one
sample in `seed_stride`, moves to the mean of the samples within the
bandwidth radius until the shift is below `TOLERANCE`, then convergence
points within half the bandwidth collapse into modes. Features are
normalized to [0, 1] before the bandwidth applies, so the bandwidth is
dimensionless.

Chroma is 8-bit, so a frame holds few distinct (Cb, Cr) values, and a
seed's path depends only on its value. `converge` therefore steps every
distinct seed value at once against the distinct sample values, a block
of seeds at a time. Seeds that reach the same point take the same path
from then on, so each step is taken once per distinct point and mapped
back to its seeds. The neighborhood sums are a float64 product of the
0/1 mask with (count, count*Cb, count*Cr); these are integers below
2**53, so the sums are exact. The distance and the stop test are the
per-seed loop's own expressions. As a point stops, its last step is
taken again over the original samples, as the per-seed loop takes it:
the mean of the samples within the bandwidth, summed in sample order.

A flat kernel's step depends only on which samples fall inside the
radius. The stepped points differ from the per-seed loop's only by the
rounding of the sums, so both select the same samples at every step and
stop at the same step, and the last step taken again returns the loop's
convergence points bit for bit. The exception is a sample within that
rounding of the radius, or a shift within it of the tolerance, which can
send a stepped path another way. `oracles.loop_converge` is the per-seed
loop, kept as the reference.

The merge is greedy and order-dependent; it runs over the seeds in
sample order. It works on Python floats with numpy's own operations for
the running means, and it decides "within the radius" from the squared
distance except within a relative 1e-9 of the radius squared, where it
calls `np.hypot` as `oracles.loop_merge_modes` does, since `d2 <= r*r`
and `np.hypot` can decide apart there by a last bit. The algorithm is
deterministic for a fixed sample order and seed stride.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .image import _finite, _int_in
from .mdc import ClassCenterFile, _centers_json, centers_to_json

# elements of each (seeds x distinct values) buffer of a step: 2 MB of
# float64, whatever the sample count
_BLOCK = 1 << 18

# a seed stops once its step moves it less than this, in normalized units
TOLERANCE = 1e-4


@dataclass
class MeanShiftConfig:
    bandwidth: float = 0.05
    max_iterations: int = 500
    seed_stride: int = 4

    def __post_init__(self):
        bw = _finite("bandwidth", self.bandwidth)
        if bw * bw > sys.float_info.max:  # converge squares it; ints exactly
            raise ValueError(f"bandwidth must be finite and > 0, got {bw}; "
                             f"its square must be finite too")
        _int_in("max_iterations", self.max_iterations, 1)
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
    pts = np.asarray(samples, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] != 2:
        raise ValueError("samples must be a non-empty list of (Cb, Cr) pairs")
    if not ((pts >= 0) & (pts <= 255) & (pts == np.floor(pts))).all():
        raise ValueError("samples must be integer (Cb, Cr) values in [0, 255]")
    keys = (pts[:, 0] * 256 + pts[:, 1]).astype(np.intp)
    values, sample_value, counts = np.unique(keys, return_inverse=True,
                                             return_counts=True)
    seeds, seed_slot = np.unique(keys[::config.seed_stride],
                                 return_inverse=True)
    pts = pts / 255.0    # a new array: samples may be the caller's
    cb, cr = values >> 8, values & 255
    u_cb, u_cr = cb / 255.0, cr / 255.0
    sums_of = np.column_stack([counts, counts * cb, counts * cr]
                              ).astype(np.float64)
    bw2 = config.bandwidth ** 2
    y = np.column_stack([seeds >> 8, seeds & 255]) / 255.0
    ends = {}    # the last step's end, per neighborhood
    rows = max(1, min(len(seeds), _BLOCK // len(values)))
    buf = np.empty((2, rows, len(values)))
    for lo in range(0, len(seeds), rows):
        active = np.arange(lo, min(lo + rows, len(seeds)))
        for step in range(config.max_iterations):
            # seeds at the same point take the same step: take it once.
            # Each (cb, cr) row is one complex value to np.unique, which
            # sorts and compares it as the pair, 6x faster than axis=0
            p, inv = np.unique(y[active].view(np.complex128).reshape(-1),
                               return_inverse=True)
            p = p.view(np.float64).reshape(-1, 2)
            # the same float operations as the loop's distance, so the
            # same values fall inside the radius
            d2, dcr = buf[0, :len(p)], buf[1, :len(p)]
            np.square(np.subtract(u_cb, p[:, :1], out=d2), out=d2)
            np.square(np.subtract(u_cr, p[:, 1:], out=dcr), out=dcr)
            d2 += dcr
            np.less_equal(d2, bw2, out=d2)     # the 0/1 mask, in place
            sums = d2 @ sums_of                # integers, exact
            n = sums[:, :1]
            new = np.where(n > 0, sums[:, 1:] / np.maximum(n, 1) / 255.0, p)
            shift = np.hypot(*(new - p).T)
            last = shift < TOLERANCE
            if step == config.max_iterations - 1:
                last[:] = True
            # a stopping point's last step again, over the samples in
            # sample order, once per distinct neighborhood, which is all
            # the step depends on; an empty neighborhood leaves it put
            for j in np.flatnonzero(last & (n[:, 0] > 0)):
                hit = d2[j] != 0
                key = hit.tobytes()
                if key not in ends:
                    ends[key] = pts[hit[sample_value]].mean(axis=0)
                new[j] = ends[key]
            y[active] = new[inv]
            active = active[~last[inv]]
            if not len(active):
                break
    return y[seed_slot]


def merge_modes(converged, merge_radius) -> ClusterResult:
    """Greedy merge of convergence points within the merge radius, in
    seed order, support-weighted so dense basins dominate the mode
    position."""
    modes = []    # normalized running means, (cb, cr) float pairs
    support = []
    # the squared distance settles the radius test outside this band;
    # inside it np.hypot decides, as the reference does (and always when
    # the radius squared is subnormal, so too coarse to band)
    r2 = merge_radius * merge_radius
    near, far = ((r2 * (1 - 1e-9), r2 * (1 + 1e-9)) if r2 >= sys.float_info.min
                 else (-1.0, math.inf))
    for y0, y1 in np.asarray(converged).tolist():
        for k, (m0, m1) in enumerate(modes):
            dx, dy = y0 - m0, y1 - m1
            d2 = dx * dx + dy * dy
            if d2 <= near or (d2 <= far and np.hypot(dx, dy) <= merge_radius):
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
