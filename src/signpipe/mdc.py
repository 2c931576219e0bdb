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
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .image import ImageCbCr, ImageGray, _finite, _int_in, _quote

# the shipped 8-bit center file, in class order
DEFAULT_CENTERS = ((127, 128), (88, 151), (116, 157), (109, 180))
DEFAULT_NAMES = ("background", "yellow", "red_low", "red_high")


@dataclass
class ClassCenterFile:
    """Flat register file of class-center components: cells[j * dims + d]
    holds dimension d of class j. `PipelineModel` checks the shape; cells
    is a list of ints that fit in resolution_bits, names a list of strs."""
    dims: int
    num_classes: int
    resolution_bits: int = 8
    cells: list = None
    names: list = None

    def __post_init__(self):
        PipelineModel(self.dims, self.num_classes, self.resolution_bits)
        n = self.dims * self.num_classes
        self.cells = [0] * n if self.cells is None else self.cells
        for attr, v in [("cells", self.cells), ("names", self.names)]:
            if not isinstance(v, (list, type(None))):
                raise ValueError(f"{attr} must be a list, "
                                 f"not {type(v).__name__}")
        if len(self.cells) != n:
            raise ValueError(f"expected {n} cells, got {len(self.cells)}")
        for i, v in enumerate(self.cells):
            _int_in(f"cell {i}", v, 0, (1 << self.resolution_bits) - 1)
        if self.names is not None and len(self.names) != self.num_classes:
            raise ValueError(f"names length must equal num_classes: "
                             f"{len(self.names)} names for "
                             f"{self.num_classes} classes")
        for j, name in enumerate(self.names or ()):
            if type(name) is not str:
                raise ValueError(f"class {j} name must be a string")

    @classmethod
    def from_centers(cls, centers, resolution_bits=8, names=None):
        """The file of `centers`, one per class, each value as given."""
        if not isinstance(centers, (list, tuple)):
            raise ValueError(f"centers must be a list or tuple, "
                             f"not {type(centers).__name__}")
        for j, center in enumerate(centers):
            if not isinstance(center, (list, tuple)):
                raise ValueError(f"center {j} must be a list or tuple, "
                                 f"not {type(center).__name__}")
        dims = len(centers[0]) if centers else 0  # [] fails the class count
        if any(len(center) != dims for center in centers):
            raise ValueError("inconsistent center dimensions")
        cells = [v for center in centers for v in center]
        return cls(dims, len(centers), resolution_bits, cells, names)

    def center(self, j):
        _int_in("class index", j, 0, self.num_classes - 1)
        return self.cells[j * self.dims:(j + 1) * self.dims]

    def centers(self):
        return [self.center(j) for j in range(self.num_classes)]


def program_center(file: ClassCenterFile, addr, value):
    """Write one register cell; refuses out-of-range addresses or values."""
    _int_in("address", addr, 0, len(file.cells) - 1)
    file.cells[addr] = _int_in(f"cell {addr}", value, 0,
                               (1 << file.resolution_bits) - 1)
    return file


def classify(file: ClassCenterFile, x):
    """Index of the center nearest to x in Manhattan distance; ties break
    to the smallest class index. The scalar reference for any D."""
    x = _vector("feature vector", x, file.dims)
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


def _vector(what, x, dims):
    """x as a tuple of `dims` values, else a ValueError naming `what`."""
    if not isinstance(x, Iterable) or len(x := tuple(x)) != dims:
        raise ValueError(f"{what} must be a sequence of length {dims}, "
                         f"got {_quote(repr(x), str)}")
    return x


# --- cycle-stepped pipeline model ---------------------------------------

@dataclass
class PipelineModel:
    """Classifier shape (D, C, bits), checked here only."""
    dims: int
    num_classes: int
    resolution_bits: int = 8

    def __post_init__(self):
        _int_in("num_classes", self.num_classes, 2)
        _int_in("dims", self.dims, 1)
        _int_in("resolution_bits", self.resolution_bits, 1, 32)

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
    schedule = [_vector(f"schedule entry at cycle {cycle}", x, model.dims)
                for cycle, x in enumerate(schedule)]
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
    _finite("frequency", frequency_hz)
    _int_in("width", width, 1)
    _int_in("height", height, 1)
    try:
        return frequency_hz / (width * height)
    except OverflowError:
        # a pixel count past the float range
        raise ValueError(f"frame size {_quote(str(width), str)}x"
                         f"{_quote(str(height), str)} is too large") from None


# --- JSON center-file format --------------------------------------------

def centers_to_json(file: ClassCenterFile) -> str:
    """The center-file JSON of `file`; `ClassCenterFile` holds the rules,
    so with int cells and str names `centers_from_json` reads it back."""
    return _centers_json(file.names, file.centers(), file.resolution_bits)


def _centers_json(names, centers, resolution_bits) -> str:
    # class j without a name is `class<j>`; only the one-mode case of
    # `trainer.centers_to_file` passes centers no ClassCenterFile holds
    names = names or [f"class{j}" for j in range(len(centers))]
    doc = {
        "resolution_bits": resolution_bits,
        "classes": [{"name": name, "center": list(center)}
                    for name, center in zip(names, centers)],
    }
    return json.dumps(doc, indent=2) + "\n"


def _json_int(digits):
    try:
        return int(digits)
    except ValueError:  # past the 4300 digits Python converts
        raise ValueError(f"number {_quote(digits, str)} is too long") from None


def centers_from_json(text: str) -> ClassCenterFile:
    """Parse a center file. This checks the JSON structure; the values are
    checked by `ClassCenterFile`. Any fault raises ValueError."""
    try:
        doc = json.loads(text, parse_int=_json_int)
    except RecursionError:
        raise ValueError("center file is nested too deeply") from None
    classes = doc.get("classes") if isinstance(doc, dict) else None
    if not isinstance(classes, list) or not classes:
        raise ValueError('center file needs a non-empty "classes" list')
    for j, c in enumerate(classes):
        if not (isinstance(c, dict) and "name" in c
                and isinstance(c.get("center"), list)):
            raise ValueError(f'class {j} needs a "name" and a "center" list')
    return ClassCenterFile.from_centers(
        [c["center"] for c in classes], doc.get("resolution_bits", 8),
        [c["name"] for c in classes])
