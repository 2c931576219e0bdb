"""Full-frame orchestration: segment, label, detect, report.

Mirrors the hardware chain: chroma conversion, optional Gaussian
pre-filter, per-pixel classification, optional median post-filter,
multi-class component labeling, and rule-based detection. `_stages`
is the one place where the chain order lives; `run_pipeline`,
`ablation_stats` and `verify_frame` all walk it. `_run_stages` keeps
rows, not frames, as the hardware does: the stages before labeling run
on strips of rows, and labeling on the whole class image. The report
carries the latency and frame-rate figures of the cycle model so a
software run documents what the streaming design would deliver.
"""

import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import oracles
from .ccl import label_components
from .detector import DetectionRule, annotate, detect
from .filters import gaussian3x3, median3x3
from .image import (ImageClass, ImageGray, ImageRGB, _finite, _int_in, _kind,
                    _quote, rgb_to_cbcr)
from .mdc import (DEFAULT_CENTERS, DEFAULT_NAMES, ClassCenterFile,
                  _chroma_centers, classify_image, estimate_frame_rate)

DEFAULT_CLOCK_MHZ = 170.0


def default_centers() -> ClassCenterFile:
    """The shipped background/yellow/red center file, `mdc.DEFAULT_CENTERS`."""
    return ClassCenterFile.from_centers(DEFAULT_CENTERS,
                                        names=list(DEFAULT_NAMES))


@dataclass
class PipelineConfig:
    centers: ClassCenterFile = field(default_factory=default_centers)
    gaussian: bool = True
    median: bool = True
    skip_classes: frozenset = frozenset({0})
    rule: DetectionRule = field(default_factory=DetectionRule)
    clock_mhz: float = DEFAULT_CLOCK_MHZ

    def __post_init__(self):
        _chroma_centers(self.centers)
        _kind("rule", self.rule, DetectionRule, "a DetectionRule")
        _kind("gaussian", self.gaussian, (bool, np.bool_), "a bool")
        _kind("median", self.median, (bool, np.bool_), "a bool")
        self.clock_mhz = mhz = _finite("clock_mhz", self.clock_mhz)
        if mhz * 1e6 > sys.float_info.max:  # run_pipeline works in Hz
            raise ValueError(f"clock_mhz must be finite and > 0, got "
                             f"{_quote(mhz)}; in Hz it must be finite too")
        try:
            self.skip_classes = frozenset(self.skip_classes)
        except TypeError:   # not iterable, or a member not hashable
            raise ValueError("skip_classes must be a set of ints, got "
                             + _quote(self.skip_classes)) from None
        for role, idx in ([("skip", i) for i in self.skip_classes]
                          + [("target", self.rule.target_class)]):
            _int_in(f"{role} class", idx, 0, self.centers.num_classes - 1)


@dataclass
class FrameReport:
    image: str
    width: int
    height: int
    class_pixels: list   # pixel count per class index, post-filter
    components: list     # ComponentFeatures
    detections: list     # the components that pass the rule
    latency_cycles: int
    est_fps: float

    def to_dict(self):
        return {
            "image": self.image,
            "width": self.width,
            "height": self.height,
            "classes": [{"index": i, "pixels": int(n)}
                        for i, n in enumerate(self.class_pixels)],
            "components": [
                {"id": c.id, "class": c.class_index, "area": c.area,
                 "bbox": list(c.bbox), "centroid": list(c.centroid)}
                for c in self.components],
            "detections": [
                {"component_id": d.id, "bbox": list(d.bbox),
                 "area": d.area, "centroid": list(d.centroid)}
                for d in self.detections],
            "latency_cycles": self.latency_cycles,
            "est_fps": self.est_fps,
        }


@dataclass
class FrameArtifacts:
    seg: ImageClass   # uint8 class indices after the optional median filter
    components_img: ImageGray
    annotated: ImageRGB


def _stages(config: PipelineConfig):
    """The chain in order, one (name, enabled, production, reference) per
    stage. Built on each call, so the stage functions resolve when it runs."""
    _kind("config", config, PipelineConfig, "a PipelineConfig")
    centers, skip = config.centers, config.skip_classes
    return [
        ("conversion", True, rgb_to_cbcr, oracles.dot_rgb_to_cbcr),
        ("gaussian", config.gaussian, gaussian3x3, oracles.stream_gaussian3x3),
        ("classify", True, lambda chroma: classify_image(centers, chroma),
         lambda chroma: oracles.scalar_classify_image(centers, chroma)),
        ("median", config.median, median3x3, oracles.stream_median3x3),
        ("labeling", True, lambda seg: label_components(seg, skip),
         lambda seg: oracles.flood_fill_label(seg, skip)),
    ]


# about the pixels a strip holds: its arrays, under 1 MB, stay in a 2 MiB
# L2 cache; 1 << 15 costs more per strip than it saves, 1 << 18 no less
_STRIP = 1 << 16


def _run_stages(config: PipelineConfig, rgb: ImageRGB):
    """Run the enabled stages; returns (class image, labeling output).
    The stages before labeling run on strips of rows, each read with one
    halo row above and below per enabled 3x3 filter: a filter spoils only
    the edge rows of its sub-image, and the frame's own edges replicate
    as they do in the whole frame."""
    *pixel, (_, _, label, _) = [s for s in _stages(config) if s[1]]
    _kind("image", rgb, ImageRGB, "an ImageRGB")
    rows, halo = max(1, _STRIP // rgb.width), config.gaussian + config.median
    seg = np.empty(rgb.data.shape[:2], np.uint8)
    for a in range(0, rgb.height, rows):
        lo = max(0, a - halo)
        value = ImageRGB(rgb.data[lo:a + rows + halo])
        for _, _, production, _ in pixel:
            value = production(value)
        seg[a:a + rows] = value.data[a - lo:a - lo + rows]
    seg = ImageClass(seg)
    return seg, label(seg)


def run_pipeline(config: PipelineConfig, rgb: ImageRGB, image_name=""):
    """Full chain on one frame; returns (FrameReport, FrameArtifacts)."""
    seg, (components_img, components) = _run_stages(config, rgb)
    detections = detect(components, config.rule)
    annotated = annotate(rgb, detections)

    counts = [int(np.count_nonzero(seg.data == c))
              for c in range(config.centers.num_classes)]
    fps = estimate_frame_rate(config.clock_mhz * 1e6, rgb.width, rgb.height)
    report = FrameReport(image_name, rgb.width, rgb.height, counts,
                         components, detections, config.centers.latency, fps)
    return report, FrameArtifacts(seg, components_img, annotated)


def ablation_stats(config: PipelineConfig, rgb: ImageRGB):
    """Component counts with both filters off versus `config`'s filters.

    Returns (count_without, count_with, reduction_percent).
    """
    with_ = len(_run_stages(config, rgb)[1][1])    # checks the arguments
    base = replace(config, gaussian=False, median=False)
    without = len(_run_stages(base, rgb)[1][1])
    reduction = 100.0 * (without - with_) / without if without else 0.0
    return without, with_, reduction


# fixed palette for --color-labels rendering; cycles past 8 entries
_PALETTE = np.array([
    (0, 0, 0), (255, 214, 0), (220, 40, 40), (160, 40, 200),
    (40, 120, 220), (40, 200, 120), (240, 140, 40), (200, 200, 200),
], dtype=np.uint8)


def render_labels(labels, num_levels=None, color=False) -> ImageRGB:
    """Map class or label values to even gray levels or a fixed palette."""
    if num_levels is None:
        num_levels = int(labels.data.max()) + 1
    num_levels = max(num_levels, 2)
    if color:
        rgb = _PALETTE[labels.data % len(_PALETTE)]
    else:
        gray = labels.data.astype(np.int32) * 255 // (num_levels - 1)
        gray = np.clip(gray, 0, 255).astype(np.uint8)
        rgb = np.repeat(gray[:, :, None], 3, axis=2)
    return ImageRGB(rgb)


def verify_frame(config: PipelineConfig, rgb: ImageRGB):
    """Cross-check one frame's production stages against the references
    in `oracles`, each on the input it receives in the chain. A disabled
    filter is checked on the input it would have received, and its output
    is dropped. Returns a dict of stage name -> bool (True = match)."""
    results = {}
    value = rgb
    for name, enabled, production, reference in _stages(config):
        out = production(value)
        results[name] = out == reference(value)
        if enabled:
            value = out
    return results
