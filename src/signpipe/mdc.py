"""Minimum Distance Classifier with a programmable center register file.

The register file holds D*C unsigned center components in class-major
order (cell j*D + d is dimension d of class j). Classification is
nearest-centroid under the Manhattan metric, so only subtractions,
absolute values, and additions are needed. A cycle-stepped model of the
pipelined structure (3-cycle dimension stages feeding a pairwise
min-selection tree) reproduces the latency 3*D + ceil(log2 C) and
1-label-per-cycle throughput.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .image import ImageCbCr, ImageGray


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
                raise ValueError(f"cell {i} value {v} exceeds "
                                 f"{self.resolution_bits}-bit range")
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


def _nearest_center_table(file: ClassCenterFile):
    """(256, 256) int32 table of `classify(file, (cb, cr))` for all inputs."""
    # a distance is at most 2 * max(255, 2**resolution_bits - 1); the
    # narrowest type that holds it keeps the per-call table build cheap
    dtype = np.int16 if file.resolution_bits <= 14 else np.int64
    levels = np.arange(256, dtype=dtype)
    best = np.zeros((256, 256), dtype=np.int32)
    best_d = None
    for j, (cb, cr) in enumerate(file.centers()):
        d = np.abs(levels - cb)[:, None] + np.abs(levels - cr)[None, :]
        if best_d is None:
            best_d = d
            continue
        # strict: a tie keeps the lower class index
        np.copyto(best, j, where=d < best_d)
        np.minimum(best_d, d, out=best_d)
    return best


def classify_image(file: ClassCenterFile, img: ImageCbCr) -> ImageGray:
    """Per-pixel classification of a chroma image into class indices.

    Chroma is 8-bit, so the classifier is tabulated once per call for
    all 65,536 (Cb, Cr) pairs and each pixel is one table lookup.
    """
    if file.dims != 2:
        raise ValueError(f"chroma classification needs dims=2, got {file.dims}")
    table = _nearest_center_table(file).reshape(-1)
    index = (img.data[:, :, 0].astype(np.intp) << 8) | img.data[:, :, 1]
    return ImageGray(img.width, img.height, table.take(index))


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


@dataclass
class _InFlight:
    vector: tuple
    partial: list          # per-class accumulated distance
    candidates: list = None  # [(distance, class index)] once in the tree


def simulate_pipeline(model: PipelineModel, file: ClassCenterFile, schedule):
    """Step the pipelined classifier one cycle at a time.

    One feature vector is accepted per cycle starting at cycle 0; the
    result for the vector accepted at cycle t appears at cycle
    t + 3*dims + ceil(log2 C). Returns a list of (cycle, label).
    """
    if (model.dims, model.num_classes) != (file.dims, file.num_classes):
        raise ValueError("model and register file disagree on dims/classes")
    n_dist = 3 * model.dims
    levels = model.selection_levels
    regs = [None] * (n_dist + levels)
    outputs = []
    schedule = list(schedule)
    cycle = 0
    pending = len(schedule)

    while pending > 0:
        done = regs[-1] if regs else None
        # shift every register toward the output
        for k in range(len(regs) - 1, 0, -1):
            regs[k] = regs[k - 1]
        regs[0] = None
        if cycle < len(schedule):
            x = tuple(schedule[cycle])
            if len(x) != model.dims:
                raise ValueError(f"schedule entry at cycle {cycle} has length "
                                 f"{len(x)}, expected {model.dims}")
            regs[0] = _InFlight(x, [0] * model.num_classes)
        # dimension stages: the accumulate happens on the last of each
        # 3-cycle process
        for d in range(model.dims):
            item = regs[3 * d + 2]
            if item is not None and item.candidates is None:
                for j in range(model.num_classes):
                    item.partial[j] += abs(item.vector[d]
                                           - file.cells[j * model.dims + d])
                if d == model.dims - 1:
                    item.candidates = list(zip(item.partial,
                                               range(model.num_classes)))
        # selection tree: one pairwise-reduction level per register; an
        # unpaired candidate passes through unchanged to the next level
        for lv in range(levels):
            item = regs[n_dist + lv]
            if item is not None and item.candidates is not None:
                cand = item.candidates
                reduced = []
                for i in range(0, len(cand) - 1, 2):
                    a, b = cand[i], cand[i + 1]
                    reduced.append(a if a[0] <= b[0] else b)
                if len(cand) % 2:
                    reduced.append(cand[-1])
                item.candidates = reduced
        if done is not None:
            assert len(done.candidates) == 1
            outputs.append((cycle, done.candidates[0][1]))
            pending -= 1
        cycle += 1
    return outputs


def estimate_frame_rate(frequency_hz, width, height):
    """Frames per second at one pixel per cycle, ignoring blanking."""
    if not (math.isfinite(frequency_hz) and frequency_hz > 0):
        raise ValueError(f"frequency must be finite and > 0, got {frequency_hz}")
    if width <= 0 or height <= 0:
        raise ValueError("dimensions must be positive")
    return frequency_hz / (width * height)


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
        raise ValueError(f"resolution_bits must be an integer, got {bits!r}")
    return ClassCenterFile.from_centers(centers, resolution_bits=bits,
                                        names=names)


def load_centers(path) -> ClassCenterFile:
    with open(path, "r", encoding="utf-8") as fh:
        return centers_from_json(fh.read())
