"""Multi-class 4-connected component labeling with features, over runs.

This is the run-based two-scan labeling of He, Chao & Suzuki (IEEE TIP
2008). A run is a maximal stretch of one class within one row. Two runs
of the same (not skipped) class belong together when they overlap
between adjacent rows; those links are resolved by a whole-array union
over runs (hook every root to its smallest linked root, then jump
pointers until each run points at its root), so a component's root is
its first run in raster order. Area, bounding box and centroid sums are
accumulated per run: a run of length n at row y covering x0..x1 adds n
to the area, y*n to sum_y and (x0+x1)*n/2 to sum_x.
"""

from dataclasses import dataclass

import numpy as np

from .image import ImageGray


@dataclass
class ComponentFeatures:
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


def label_components(seg: ImageGray, skip=frozenset()):
    """Label 4-connected same-class regions, numbered in raster order of
    their first pixel.

    Pixels whose class is in `skip` get the reserved id 0 and produce no
    features. Returns (ImageGray of component ids 1..N, list of
    ComponentFeatures in id order).
    """
    h, w = seg.height, seg.width
    flat = seg.data.reshape(-1)
    kept = np.ones(flat.size, dtype=bool)
    for c in skip:
        kept &= flat != c

    # a run starts where the class changes or a row begins
    is_start = np.empty(flat.size, dtype=bool)
    is_start[0] = True
    np.not_equal(flat[1:], flat[:-1], out=is_start[1:])
    is_start[::w] = True
    starts = np.flatnonzero(is_start)
    lengths = np.diff(starts, append=flat.size)
    run_y, run_x0 = np.divmod(starts, w)
    run_keep = kept[starts]

    # a kept pixel with the same class above it links the two pixels'
    # runs. Two runs overlap in one unbroken stretch of links, and within
    # a stretch the lower run can change only where the upper one does,
    # so keep the first link of each stretch and of each upper run
    link = np.flatnonzero((flat[w:] == flat[:-w]) & kept[w:])
    first = np.ones(link.size, dtype=bool)
    first[1:] = np.diff(link) != 1
    first |= is_start[link]
    link = link[first]
    upper = np.searchsorted(starts, link, "right") - 1
    lower = np.searchsorted(starts, link + w, "right") - 1

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
    labels = ImageGray(w, h, np.repeat(run_comp, lengths).reshape(h, w))

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
        flat[starts[firsts]].tolist(), area.tolist(), min_x.tolist(),
        run_y[firsts].tolist(), max_x.tolist(), max_y.tolist(),
        sum_x.tolist(), sum_y.tolist())]
    return labels, feats
