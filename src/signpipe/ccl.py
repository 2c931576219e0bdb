"""Multi-class 4-connected component labeling with features, over runs.

This is the run-based two-scan labeling of He, Chao & Suzuki (IEEE TIP
2008). A run is a maximal stretch of one class within one row. Two runs
of the same (not skipped) class belong together when they overlap
between adjacent rows: each kept run below row 0 finds the runs over its
pixels by two binary searches on the run starts and links those of its
class. The links are resolved by a whole-array union over runs (hook
every root to its smallest linked root, then jump pointers until each
run points at its root), so a component's root is its first run in
raster order. Area, bounding box and centroid sums are accumulated per
run: a run of length n at row y covering x0..x1 adds n to the area, y*n
to sum_y and (x0+x1)*n/2 to sum_x. Each component record carries its
`id`, its value in the label image: 1..N in raster order of its first
pixel. A detection is one of these records.
"""

from dataclasses import dataclass

import numpy as np

from .image import ImageClass, ImageGray, _kind


@dataclass
class ComponentFeatures:
    id: int  # the component's value in the label image
    class_index: int
    area: int
    min_x: int
    min_y: int
    max_x: int
    max_y: int
    sum_x: int
    sum_y: int

    @property
    def width(self):
        return self.max_x - self.min_x + 1

    @property
    def height(self):
        return self.max_y - self.min_y + 1

    @property
    def bbox(self):
        return (self.min_x, self.min_y, self.max_x, self.max_y)

    @property
    def centroid(self):
        return (self.sum_x / self.area, self.sum_y / self.area)


def label_components(seg: ImageClass, skip=frozenset()):
    """Label 4-connected same-class regions, numbered in raster order of
    their first pixel.

    Pixels whose class is in `skip` get the reserved id 0 and produce no
    features. Returns (ImageGray of component ids 1..N, list of
    ComponentFeatures in id order).
    """
    _kind("image", seg, (ImageClass, ImageGray), "an ImageClass or ImageGray")
    h, w = seg.height, seg.width
    flat = seg.data.reshape(-1)

    # a run starts where the class changes or a row begins
    is_start = np.empty(flat.size, dtype=bool)
    is_start[0] = True
    np.not_equal(flat[1:], flat[:-1], out=is_start[1:])
    is_start[::w] = True
    starts = np.flatnonzero(is_start)
    lengths = np.diff(starts, append=flat.size)
    run_y, run_x0 = np.divmod(starts, w)
    cls = flat[starts]
    run_keep = np.ones(starts.size, dtype=bool)
    for c in skip:
        run_keep &= cls != c

    # a kept run below row 0 links the upper runs of its class that cover
    # pixels start - w to start + length - 1 - w: runs up0 to up1 - 1
    low = np.flatnonzero(run_keep & (starts >= w))
    up0 = np.searchsorted(starts, starts[low] - w, "right") - 1
    up1 = np.searchsorted(starts, starts[low] + lengths[low] - w)
    counts = up1 - up0
    lower = np.repeat(low, counts)
    upper = np.arange(lower.size) + np.repeat(up0 - np.cumsum(counts) + counts,
                                              counts)
    same = cls[upper] == cls[lower]
    upper, lower = upper[same], lower[same]

    # union over runs: hook each root to its smallest linked root, then
    # pointer-jump to the roots; a component's root is its first run
    root = np.arange(starts.size)
    while True:
        ru, rl = root[upper], root[lower]
        differ = ru != rl
        if not differ.any():
            break
        upper, lower = upper[differ], lower[differ]
        np.minimum.at(root, np.maximum(ru, rl)[differ],
                      np.minimum(ru, rl)[differ])
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped

    firsts = np.flatnonzero((root == np.arange(starts.size)) & run_keep)
    comp_of_root = np.zeros(starts.size, dtype=np.int32)
    comp_of_root[firsts] = np.arange(1, firsts.size + 1, dtype=np.int32)
    run_comp = comp_of_root[root]  # skipped runs are roots without an id
    labels = ImageGray(np.repeat(run_comp, lengths).reshape(h, w))

    # per-run features, gathered into their components
    k = run_comp[run_keep] - 1
    y, x0, n = run_y[run_keep], run_x0[run_keep], lengths[run_keep]
    x1 = x0 + n - 1
    area = np.zeros(firsts.size, dtype=np.int64)
    sum_x, sum_y = np.zeros_like(area), np.zeros_like(area)
    min_x, max_x = np.full_like(area, w), np.zeros_like(area)
    max_y = np.zeros_like(area)
    np.add.at(area, k, n)
    np.add.at(sum_x, k, (x0 + x1) * n // 2)
    np.add.at(sum_y, k, y * n)
    np.minimum.at(min_x, k, x0)
    np.maximum.at(max_x, k, x1)
    np.maximum.at(max_y, k, y)
    feats = [ComponentFeatures(*f) for f in zip(
        range(1, firsts.size + 1), cls[firsts].tolist(),
        area.tolist(), min_x.tolist(), run_y[firsts].tolist(),
        max_x.tolist(), max_y.tolist(), sum_x.tolist(), sum_y.tolist())]
    return labels, feats
