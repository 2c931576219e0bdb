"""Rule-based sign detection over labeled components, plus annotation.

A component is a sign candidate when it has the target (yellow) class, a
bounding-box width/height ratio strictly inside (ratio_min, ratio_max),
and an area strictly above area_min. The ratio bounds exclude the inner
hole of digits like zero. Ratio comparisons are exact rationals so
components near the bounds never flip due to float rounding.
"""

import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .image import ImageRGB, _int_in, _quote

ANNOTATION_COLOR = (0, 255, 0)

# Fraction builds 10**exponent exactly, so its parse time grows with the
# exponent; MAX_EXPONENT still admits every finite float's repr
_DECIMAL = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE]([+-]?\d+))?")
MAX_DECIMAL_CHARS, MAX_EXPONENT = 40, 400


def _as_fraction(name, v):
    # via str() so a literal like 0.7 means exactly 7/10
    if isinstance(v, Fraction):
        return v
    try:
        text = str(v)
    except ValueError:  # an int past Python's str() limit of 4300 digits
        text = f"<{type(v).__name__} too long>"
    m = _DECIMAL.fullmatch(text)
    if (not m or len(text) > MAX_DECIMAL_CHARS
            or abs(int(m[1] or 0)) > MAX_EXPONENT):
        raise ValueError(f"{name} must be a finite decimal, "
                         f"got {_quote(text)}")
    return Fraction(text)


@dataclass
class DetectionRule:
    """Which components are signs. A ratio bound given as anything but a
    Fraction is read from its str(): a decimal such as 0.7 (exactly 7/10),
    3 or 1e9, of at most 40 characters (MAX_DECIMAL_CHARS) and with a
    decimal exponent of at most 400 in magnitude (MAX_EXPONENT), so it
    parses in bounded time; nan, inf and other text are refused."""
    target_class: int = 1
    ratio_min: Fraction = Fraction(7, 10)
    ratio_max: Fraction = Fraction(3)
    area_min: int = 200

    def __post_init__(self):
        self.ratio_min = _as_fraction("ratio_min", self.ratio_min)
        self.ratio_max = _as_fraction("ratio_max", self.ratio_max)
        if not 0 < self.ratio_min < self.ratio_max:
            raise ValueError("need 0 < ratio_min < ratio_max")
        _int_in("target_class", self.target_class, 0)
        _int_in("area_min", self.area_min, 1)


@dataclass(frozen=True)
class Detection:
    component_id: int
    bbox: tuple  # (min_x, min_y, max_x, max_y)
    area: int
    centroid: tuple

    @property
    def width(self):
        return self.bbox[2] - self.bbox[0] + 1

    @property
    def height(self):
        return self.bbox[3] - self.bbox[1] + 1


def detect(components, rule: DetectionRule):
    """Filter components against the rule; ids are 1-based list positions."""
    out = []
    for i, comp in enumerate(components):
        if comp.class_index != rule.target_class:
            continue
        ratio = Fraction(comp.width, comp.height)
        if not rule.ratio_min < ratio < rule.ratio_max:
            continue
        if comp.area <= rule.area_min:
            continue
        out.append(Detection(i + 1, comp.bbox, comp.area, comp.centroid))
    return out


def annotate(img: ImageRGB, detections):
    """Draw a 1-pixel green rectangle on each detection's bounding box."""
    out = img.data.copy()
    color = np.array(ANNOTATION_COLOR, dtype=np.uint8)
    for det in detections:
        x0, y0, x1, y1 = det.bbox
        if not (0 <= x0 <= x1 < img.width and 0 <= y0 <= y1 < img.height):
            raise ValueError(f"bbox {det.bbox} out of bounds for "
                             f"{img.width}x{img.height} image")
        out[y0, x0:x1 + 1] = color
        out[y1, x0:x1 + 1] = color
        out[y0:y1 + 1, x0] = color
        out[y0:y1 + 1, x1] = color
    return ImageRGB(img.width, img.height, out)
