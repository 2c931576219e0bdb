"""Full-frame orchestration: segment, label, detect, report.

Mirrors the hardware chain: chroma conversion, optional Gaussian
pre-filter, per-pixel classification, optional median post-filter,
multi-class component labeling, and rule-based detection. `_stages`
is the one place where the chain order lives; `run_pipeline`,
`ablation_stats` and `verify_frame` all walk it. The report carries
the latency and frame-rate figures of the cycle model so a software
run documents what the streaming design would deliver.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import oracles
from .ccl import label_components
from .detector import DetectionRule, annotate, detect
from .filters import gaussian3x3, median3x3
from .image import ImageGray, ImageRGB, _finite, _int_in, _quote, rgb_to_cbcr
from .mdc import (DEFAULT_CENTERS, DEFAULT_NAMES, ClassCenterFile,
                  PipelineModel, classify_image, estimate_frame_rate)

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
        if self.centers.dims != 2:
            raise ValueError("pipeline needs 2-dimensional (Cb, Cr) centers")
        if (bits := self.centers.resolution_bits) != 8:
            raise ValueError(f"pipeline needs 8-bit centers, got {bits}-bit")
        _finite("clock_mhz", self.clock_mhz)
        try:
            self.skip_classes = frozenset(self.skip_classes)
        except TypeError:   # not iterable, or a member not hashable
            raise ValueError("skip_classes must be a set of ints, got "
                             + _quote(repr(self.skip_classes), str)) from None
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
    detections: list
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
                {"id": i + 1, "class": c.class_index, "area": c.area,
                 "bbox": list(c.bbox),
                 "centroid": [c.centroid[0], c.centroid[1]]}
                for i, c in enumerate(self.components)],
            "detections": [
                {"component_id": d.component_id, "bbox": list(d.bbox),
                 "area": d.area, "centroid": [d.centroid[0], d.centroid[1]]}
                for d in self.detections],
            "latency_cycles": self.latency_cycles,
            "est_fps": self.est_fps,
        }


@dataclass
class FrameArtifacts:
    seg: ImageGray          # class indices after the optional median filter
    components_img: ImageGray
    annotated: ImageRGB


def _stages(config: PipelineConfig):
    """The chain in order, one (name, enabled, production, reference) per
    stage. Built on each call, so the stage functions resolve when it runs."""
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


def _run_stages(config: PipelineConfig, rgb: ImageRGB):
    """Run the enabled stages; returns (class image, labeling output)."""
    seg = value = rgb
    for _, enabled, production, _ in _stages(config):
        if enabled:
            seg, value = value, production(value)
    return seg, value


def run_pipeline(config: PipelineConfig, rgb: ImageRGB, image_name=""):
    """Full chain on one frame; returns (FrameReport, FrameArtifacts)."""
    seg, (components_img, components) = _run_stages(config, rgb)
    detections = detect(components, config.rule)
    annotated = annotate(rgb, detections)

    counts = [int(np.count_nonzero(seg.data == c))
              for c in range(config.centers.num_classes)]
    model = PipelineModel(config.centers.dims, config.centers.num_classes,
                          config.centers.resolution_bits)
    fps = estimate_frame_rate(config.clock_mhz * 1e6, rgb.width, rgb.height)
    report = FrameReport(image_name, rgb.width, rgb.height, counts,
                         components, detections, model.latency, fps)
    return report, FrameArtifacts(seg, components_img, annotated)


def ablation_stats(config: PipelineConfig, rgb: ImageRGB):
    """Component counts with both filters off versus `config`'s filters.

    Returns (count_without, count_with, reduction_percent).
    """
    base = replace(config, gaussian=False, median=False)
    without = len(_run_stages(base, rgb)[1][1])
    with_ = len(_run_stages(config, rgb)[1][1])
    reduction = 100.0 * (without - with_) / without if without else 0.0
    return without, with_, reduction


# fixed palette for --color-labels rendering; cycles past 8 entries
_PALETTE = np.array([
    (0, 0, 0), (255, 214, 0), (220, 40, 40), (160, 40, 200),
    (40, 120, 220), (40, 200, 120), (240, 140, 40), (200, 200, 200),
], dtype=np.uint8)


def render_labels(labels: ImageGray, num_levels=None, color=False) -> ImageRGB:
    """Map label values to evenly spaced gray levels or a fixed palette."""
    if num_levels is None:
        num_levels = int(labels.data.max()) + 1
    num_levels = max(num_levels, 2)
    if color:
        rgb = _PALETTE[labels.data % len(_PALETTE)]
    else:
        gray = (labels.data * 255) // (num_levels - 1)
        gray = np.clip(gray, 0, 255).astype(np.uint8)
        rgb = np.repeat(gray[:, :, None], 3, axis=2)
    return ImageRGB(labels.width, labels.height, rgb)


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
