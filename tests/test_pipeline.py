"""Metamorphic end-to-end tests of the pipeline, and `verify_frame` as a
differential test on random small frames.

The 3x3 filters replicate edges and labeling is 4-connected, so both
are symmetric under transposition; on a uniform background, moving a
sign that stays clear of the border moves its features and nothing
else. Component ids follow raster order, so features are compared as
multisets.
"""

import builtins
import io
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signpipe.ccl import label_components
from signpipe.detector import DetectionRule, detect
from signpipe.filters import gaussian3x3, median3x3
from signpipe.image import ImageRGB, cbcr_to_rgb, rgb_to_cbcr
from signpipe.mdc import (ClassCenterFile, centers_from_json, centers_to_json,
                          classify_image)
from signpipe.pipeline import (PipelineConfig, default_centers, run_pipeline,
                               verify_frame)
from signpipe.synthetic import (BACKGROUND_CHROMA, RED_CHROMA, YELLOW_CHROMA,
                                chroma_constant, disc_frame, paint_disc)

from refusals import int_refusals, real_refusals


def features(rgb, config=None):
    report, _ = run_pipeline(config or PipelineConfig(), rgb)
    return report.components


def transposed(rgb):
    return ImageRGB(rgb.height, rgb.width, rgb.data.transpose(1, 0, 2))


@pytest.mark.parametrize("filters", [True, False], ids=["filters", "raw"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_transposing_the_frame_transposes_every_component(seed, filters):
    # unfiltered and with no class skipped, the noise leaves many small
    # components, background ones along the border too
    config = PipelineConfig(gaussian=filters, median=filters,
                            skip_classes={0} if filters else ())
    rgb = disc_frame(120, 90, 20, 6, sigma=8, seed=seed)
    expected = sorted((c.class_index, c.area, c.min_y, c.min_x, c.max_y,
                       c.max_x, c.sum_y, c.sum_x)
                      for c in features(rgb, config))
    got = sorted((c.class_index, c.area, c.min_x, c.min_y, c.max_x,
                  c.max_y, c.sum_x, c.sum_y)
                 for c in features(transposed(rgb), config))
    assert len(got) >= (2 if filters else 50) and got == expected


@pytest.mark.parametrize("median", [True, False], ids=["median", "no_median"])
@pytest.mark.parametrize("gaussian", [True, False],
                         ids=["gaussian", "no_gaussian"])
@pytest.mark.parametrize("seed", [1, 2])
def test_run_pipeline_matches_the_chain_written_out(seed, gaussian, median):
    # the chain composed by hand, leaving out the filters that are off
    config = PipelineConfig(gaussian=gaussian, median=median)
    rgb = disc_frame(96, 80, 18, 6, sigma=8, seed=seed)
    chroma = rgb_to_cbcr(rgb)
    if gaussian:
        chroma = gaussian3x3(chroma)
    seg = classify_image(config.centers, chroma)
    if median:
        seg = median3x3(seg)
    labels, components = label_components(seg, config.skip_classes)

    report, artifacts = run_pipeline(config, rgb)
    assert artifacts.seg == seg and artifacts.components_img == labels
    assert report.components == components
    assert report.detections == detect(components, config.rule)


def sign_frame(cx, cy, radius, ring, width=48, height=40):
    chroma = chroma_constant(width, height, BACKGROUND_CHROMA)
    paint_disc(chroma, cx, cy, radius + ring, RED_CHROMA)
    paint_disc(chroma, cx, cy, radius, YELLOW_CHROMA)
    return cbcr_to_rgb(chroma)


@st.composite
def two_placements(draw, width=48, height=40):
    radius = draw(st.integers(2, 8))
    ring = draw(st.integers(1, 4))
    # the outer edge stays at least 3 px from every border
    reach = radius + ring + 3
    xs = st.integers(reach, width - 1 - reach)
    ys = st.integers(reach, height - 1 - reach)
    return radius, ring, (draw(xs), draw(ys)), (draw(xs), draw(ys))


@given(two_placements())
@settings(max_examples=25, deadline=None)
def test_translating_a_sign_translates_its_bbox_and_centroid(placement):
    radius, ring, (x0, y0), (x1, y1) = placement
    dx, dy = x1 - x0, y1 - y0
    before = features(sign_frame(x0, y0, radius, ring))
    after = features(sign_frame(x1, y1, radius, ring))
    assert len(before) >= 1

    def moved(c, dx, dy):
        return (c.class_index, c.area, c.min_x + dx, c.min_y + dy,
                c.max_x + dx, c.max_y + dy,
                Fraction(c.sum_x, c.area) + dx, Fraction(c.sum_y, c.area) + dy)

    assert sorted(moved(c, dx, dy) for c in before) == \
        sorted(moved(c, 0, 0) for c in after)


# a skip class as each refused kind of value, and clock_mhz likewise
SETTING_ROWS = ([(f"skip_{kind}", {"skip_classes": {v}}, message)
                 for kind, v, message in int_refusals("skip class", 0, 3)]
                + [(f"clock_{kind}", {"clock_mhz": v}, message)
                   for kind, v, message in real_refusals("clock_mhz")])


@pytest.mark.parametrize("kwargs, message", [
    ({"skip_classes": {4}}, "skip class must be an int in [0, 3], got 4"),
    ({"skip_classes": {0, -1}}, "skip class must be an int in [0, 3], got -1"),
    ({"rule": DetectionRule(target_class=4)},
     "target class must be an int in [0, 3], got 4"),
    ({"centers": ClassCenterFile(3, 4)},
     "pipeline needs 2-dimensional (Cb, Cr) centers"),
    # a fractional class labeled background; True was read as class 1
    ({"skip_classes": {1.5}}, "skip class must be an int in [0, 3], got 1.5"),
    ({"skip_classes": {True}},
     "skip class must be an int in [0, 3], got True"),
    ({"skip_classes": 5}, "skip_classes must be a set of ints, got 5"),
    ({"skip_classes": [[0]]}, "skip_classes must be a set of ints, got [[0]]"),
] + [row[1:] for row in SETTING_ROWS],
   ids=["skip_past_end", "negative_skip", "target_past_end",
        "three_dim_centers", "fractional_skip", "bool_skip", "int_skip_set",
        "unhashable_skip"] + [row[0] for row in SETTING_ROWS])
def test_config_refuses_class_indices_outside_the_center_file(kwargs, message):
    # the shipped center file has 4 classes
    with pytest.raises(ValueError, match=re.escape(message)):
        PipelineConfig(**kwargs)


@st.composite
def verify_cases(draw):
    w, h = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    pixels = draw(st.binary(min_size=w * h * 3, max_size=w * h * 3))
    rgb = ImageRGB(w, h, np.frombuffer(pixels, dtype=np.uint8).reshape(h, w, 3))
    classes = draw(st.integers(2, 8))
    cells = draw(st.lists(st.integers(0, 255), min_size=2 * classes,
                          max_size=2 * classes))
    config = PipelineConfig(
        centers=ClassCenterFile(2, classes, 8, cells),
        gaussian=draw(st.booleans()), median=draw(st.booleans()),
        skip_classes=draw(st.frozensets(st.integers(0, classes - 1))))
    return config, rgb


@given(verify_cases())
@settings(max_examples=60, deadline=None)
def test_verify_frame_agrees_on_random_small_frames(case):
    config, rgb = case
    result = verify_frame(config, rgb)
    # a filter that is off is still checked
    assert list(result) == ["conversion", "gaussian", "classify", "median",
                            "labeling"]
    assert all(result.values())


def test_default_centers_are_the_file_the_package_once_shipped():
    # the shipped background/yellow/red center file as a document; the
    # default centers and their JSON must read back as exactly this
    shipped = centers_from_json("""{
      "resolution_bits": 8,
      "classes": [
        {"name": "background", "center": [127, 128]},
        {"name": "yellow", "center": [88, 151]},
        {"name": "red_low", "center": [116, 157]},
        {"name": "red_high", "center": [109, 180]}
      ]
    }""")
    assert default_centers() == shipped
    assert centers_from_json(centers_to_json(default_centers())) == shipped


def test_a_default_run_opens_no_file(monkeypatch):
    def refuse(*args, **kwargs):
        raise OSError("the library opened a file")

    for module in (builtins, io):
        monkeypatch.setattr(module, "open", refuse)
    report, _ = run_pipeline(PipelineConfig(), disc_frame())
    assert len(report.detections) == 1
