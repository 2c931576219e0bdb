"""Minimum Distance Classifier with a programmable center register file.

The register file holds D*C unsigned center components in class-major
order (cell j*D + d is dimension d of class j). Classification is
nearest-centroid under the Manhattan metric, so only subtractions,
absolute values, and additions are needed. A cycle-stepped model of the
pipelined structure reproduces the latency 3*D + ceil(log2 C) and
1-label-per-cycle throughput: each dimension takes three register stages
(subtract the center components, take absolute values, accumulate) and
feeds a pairwise min-selection tree of ceil(log2 C) levels.
"""

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .image import ImageCbCr, ImageGray, _quote


@dataclass
class ClassCenterFile:
    """Flat register file of class-center components.

    cells[j * dims + d] holds dimension d of class j's center; every
    value must fit in resolution_bits.
    """
    dims: int
    num_classes: int
    resolution_bits: int = 8
    cells: list = None
    names: list = None

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.dims < 1:
            raise ValueError("dims must be >= 1")
        if not 1 <= self.resolution_bits <= 32:
            raise ValueError("resolution_bits must be in [1, 32]")
        n = self.dims * self.num_classes
        if self.cells is None:
            self.cells = [0] * n
        if len(self.cells) != n:
            raise ValueError(f"expected {n} cells, got {len(self.cells)}")
        limit = 1 << self.resolution_bits
        for i, v in enumerate(self.cells):
            if not 0 <= v < limit:
                raise ValueError(f"cell {i} value {_quote(str(v), str)} "
                                 f"exceeds {self.resolution_bits}-bit range")
        if self.names is not None and len(self.names) != self.num_classes:
            raise ValueError("names length must equal num_classes")

    @classmethod
    def from_centers(cls, centers, resolution_bits=8, names=None):
        # an empty list fails the class-count check
        dims = len(centers[0]) if centers else 0
        cells = [int(v) for center in centers for v in center]
        return cls(dims, len(centers), resolution_bits, cells, names)

    def center(self, j):
        if not 0 <= j < self.num_classes:
            raise ValueError(f"class index {j} out of range")
        return self.cells[j * self.dims:(j + 1) * self.dims]

    def centers(self):
        return [self.center(j) for j in range(self.num_classes)]


def program_center(file: ClassCenterFile, addr, value):
    """Write one register cell; refuses out-of-range addresses or values."""
    if not 0 <= addr < file.dims * file.num_classes:
        raise ValueError(f"address {addr} out of range "
                         f"[0, {file.dims * file.num_classes})")
    if not 0 <= value < (1 << file.resolution_bits):
        raise ValueError(f"value {value} exceeds {file.resolution_bits}-bit range")
    file.cells[addr] = value
    return file


def classify(file: ClassCenterFile, x):
    """Index of the center nearest to x in Manhattan distance; ties break
    to the smallest class index. The scalar reference for any D."""
    if len(x) != file.dims:
        raise ValueError(f"feature vector length {len(x)} != dims {file.dims}")
    dists = [sum(abs(a - b) for a, b in zip(x, center))
             for center in file.centers()]
    return dists.index(min(dists))


@functools.lru_cache(maxsize=8)
def _nearest_center_table(cells):
    """Read-only (256, 256) int32 table of `classify` at [Cr, Cb] for
    every (Cb, Cr), built once per distinct 2-D register contents `cells`."""
    levels = np.arange(256, dtype=np.int64)
    best = np.zeros((256, 256), dtype=np.int32)
    best_d = None
    for j, (cb, cr) in enumerate(zip(cells[0::2], cells[1::2])):
        d = np.abs(levels - cr)[:, None] + np.abs(levels - cb)[None, :]
        if best_d is None:
            best_d = d
            continue
        # strict: a tie keeps the lower class index
        np.copyto(best, j, where=d < best_d)
        np.minimum(best_d, d, out=best_d)
    best.flags.writeable = False
    return best


def classify_image(file: ClassCenterFile, img: ImageCbCr) -> ImageGray:
    """Per-pixel classification of a chroma image into class indices.

    The classifier is tabulated for all 65,536 (Cb, Cr), once per center
    file; a pixel's two bytes, as one little-endian 16-bit key, index it.
    """
    if file.dims != 2:
        raise ValueError(f"chroma classification needs dims=2, got {file.dims}")
    table = _nearest_center_table(tuple(file.cells)).reshape(-1)
    key = img.data.view("<u2")[:, :, 0]
    return ImageGray(img.width, img.height, table.take(key))


# --- cycle-stepped pipeline model ---------------------------------------

@dataclass
class PipelineModel:
    dims: int
    num_classes: int
    resolution_bits: int = 8

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.dims < 1:
            raise ValueError(f"dims must be >= 1, got {self.dims}")

    @property
    def selection_levels(self):
        return math.ceil(math.log2(self.num_classes))

    @property
    def latency(self):
        return 3 * self.dims + self.selection_levels

    @property
    def accumulator_bits(self):
        # two guard bits as a floor, widened for high-dimensional sums
        return self.resolution_bits + max(2, math.ceil(math.log2(self.dims)))


def _subtract(centers, d, x, candidates):
    """Register 3d: subtract center component d for every class."""
    return x, candidates, [x[d] - center[d] for center in centers]


def _absolute(x, candidates, diffs):
    """Register 3d+1: take the absolute values of the differences."""
    return x, candidates, [abs(e) for e in diffs]


def _accumulate(x, candidates, diffs):
    """Register 3d+2: add them into the (distance, class) candidates."""
    return x, [(s + e, j) for (s, j), e in zip(candidates, diffs)]


def _select(x, candidates):
    """One selection level: the smaller of each pair; candidates stay in
    class order, so a tie keeps the lower class. An unpaired one passes."""
    return x, [min(candidates[i:i + 2]) for i in range(0, len(candidates), 2)]


def simulate_pipeline(model: PipelineModel, file: ClassCenterFile, schedule):
    """Step the pipelined classifier one cycle at a time.

    One feature vector is accepted per cycle from cycle 0. Each cycle
    emits the last register's label, then moves every value one register
    on through its stage, so the vector accepted at cycle t is labelled
    at cycle t + 3*dims + ceil(log2 C). Returns a list of (cycle, label).
    """
    if (model.dims, model.num_classes) != (file.dims, file.num_classes):
        raise ValueError("model and register file disagree on dims/classes")
    stages = [stage for d in range(model.dims) for stage in (
        functools.partial(_subtract, file.centers(), d), _absolute,
        _accumulate)] + [_select] * model.selection_levels
    schedule = [tuple(x) for x in schedule]
    for cycle, x in enumerate(schedule):
        if len(x) != model.dims:
            raise ValueError(f"schedule entry at cycle {cycle} has length "
                             f"{len(x)}, expected {model.dims}")
    start = [(0, j) for j in range(model.num_classes)]
    regs = [None] * len(stages)
    outputs = []
    for cycle in range(len(schedule) + len(stages)):
        if regs[-1] is not None:
            _, [(_, label)] = regs[-1]
            outputs.append((cycle, label))
        value = (schedule[cycle], start) if cycle < len(schedule) else None
        regs = [None if v is None else stage(*v)
                for stage, v in zip(stages, [value] + regs[:-1])]
    return outputs


def estimate_frame_rate(frequency_hz, width, height):
    """Frames per second at one pixel per cycle, ignoring blanking."""
    if not (math.isfinite(frequency_hz) and frequency_hz > 0):
        raise ValueError(f"frequency must be finite and > 0, got {frequency_hz}")
    if width <= 0 or height <= 0:
        raise ValueError("dimensions must be positive")
    try:
        return frequency_hz / (width * height)
    except OverflowError:
        # a pixel count past the float range
        raise ValueError(f"frame size {width}x{height} is too large") from None


# --- JSON center-file format --------------------------------------------

def centers_to_json(file: ClassCenterFile) -> str:
    names = file.names or [f"class{j}" for j in range(file.num_classes)]
    return format_centers(names, file.centers(), file.resolution_bits)


def format_centers(names, centers, resolution_bits) -> str:
    """The center-file JSON of named centers, in class order.

    Any class count is written; `centers_from_json` reads back only
    files with 2 or more classes.
    """
    doc = {
        "resolution_bits": resolution_bits,
        "classes": [{"name": name, "center": list(center)}
                    for name, center in zip(names, centers)],
    }
    return json.dumps(doc, indent=2) + "\n"


def centers_from_json(text: str) -> ClassCenterFile:
    """Parse a center file; a malformed document raises ValueError."""
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("center file is nested too deeply") from None
    classes = doc.get("classes") if isinstance(doc, dict) else None
    if not isinstance(classes, list) or not classes:
        raise ValueError('center file needs a non-empty "classes" list')
    for j, c in enumerate(classes):
        if not isinstance(c, dict) or "name" not in c or "center" not in c:
            raise ValueError(f'class {j} needs a "name" and a "center"')
        if not isinstance(c["name"], str):
            raise ValueError(f"class {j} name must be a string")
        center = c["center"]
        if (not isinstance(center, list)
                or not all(type(v) is int for v in center)):
            raise ValueError(f"class {j} center must be a list of integers")
    names = [c["name"] for c in classes]
    centers = [c["center"] for c in classes]
    dims = len(centers[0])
    for c in centers:
        if len(c) != dims:
            raise ValueError("inconsistent center dimensions")
    bits = doc.get("resolution_bits", 8)
    if type(bits) is not int:
        raise ValueError(f"resolution_bits must be an integer, "
                         f"got {_quote(repr(bits), str)}")
    return ClassCenterFile.from_centers(centers, resolution_bits=bits,
                                        names=names)
