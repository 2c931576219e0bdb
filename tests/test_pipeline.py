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
import json
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from signpipe import pipeline
from signpipe.ccl import label_components
from signpipe.detector import DetectionRule, detect
from signpipe.filters import gaussian3x3, median3x3
from signpipe.image import (ImageClass, ImageGray, ImageRGB, cbcr_to_rgb,
                            rgb_to_cbcr)
from signpipe.mdc import (ClassCenterFile, centers_from_json, centers_to_json,
                          classify_image)
from signpipe.pipeline import (PipelineConfig, default_centers, render_labels,
                               run_pipeline, verify_frame)
from signpipe.synthetic import (BACKGROUND_CHROMA, RED_CHROMA, YELLOW_CHROMA,
                                chroma_constant, disc_frame, paint_disc)

from refusals import int_refusals, real_refusals


def features(rgb, config=None):
    report, _ = run_pipeline(config or PipelineConfig(), rgb)
    return report.components


def transposed(rgb):
    return ImageRGB(rgb.data.transpose(1, 0, 2))


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


def whole_frame_stages(config, rgb):
    """The stages before labeling, each called once on the whole frame."""
    chroma = rgb_to_cbcr(rgb)
    if config.gaussian:
        chroma = gaussian3x3(chroma)
    seg = classify_image(config.centers, chroma)
    return median3x3(seg) if config.median else seg


@pytest.mark.parametrize("median", [True, False], ids=["median", "no_median"])
@pytest.mark.parametrize("gaussian", [True, False],
                         ids=["gaussian", "no_gaussian"])
@pytest.mark.parametrize("seed", [1, 2])
def test_run_pipeline_matches_the_chain_written_out(seed, gaussian, median):
    # the chain composed by hand, leaving out the filters that are off
    config = PipelineConfig(gaussian=gaussian, median=median)
    rgb = disc_frame(96, 80, 18, 6, sigma=8, seed=seed)
    seg = whole_frame_stages(config, rgb)
    labels, components = label_components(seg, config.skip_classes)

    report, artifacts = run_pipeline(config, rgb)
    assert artifacts.seg == seg and artifacts.components_img == labels
    assert report.components == components
    assert report.detections == detect(components, config.rule)
    # a detection is its component's own record, numbered as in the labels
    assert report.detections
    assert all(d is report.components[d.id - 1] for d in report.detections)


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


FRAME = ImageRGB(np.zeros((2, 3, 3), np.uint8))

# a skip class as each refused kind of value, and clock_mhz likewise
SETTING_ROWS = ([(f"skip_{kind}", {"skip_classes": {v}}, message)
                 for kind, v, message in int_refusals("skip class", 0, 3)]
                + [(f"clock_{kind}", {"clock_mhz": v}, message)
                   for kind, v, message in real_refusals("clock_mhz")]
                # a float whose Hz value is not: run_pipeline refused
                # every frame of it as `frequency ... got inf`
                + [("clock_past_float_in_hz", {"clock_mhz": 1e303},
                    "clock_mhz must be finite and > 0, got 1e+303; in Hz "
                    "it must be finite too")])


@pytest.mark.parametrize("kwargs, message", [
    ({"skip_classes": {4}}, "skip class must be an int in [0, 3], got 4"),
    ({"skip_classes": {0, -1}}, "skip class must be an int in [0, 3], got -1"),
    ({"rule": DetectionRule(target_class=4)},
     "target class must be an int in [0, 3], got 4"),
    ({"centers": ClassCenterFile(3, 4)},
     "pipeline needs 2-dimensional (Cb, Cr) centers"),
    # one past what a uint8 class image holds; class 256 would read as 0
    ({"centers": ClassCenterFile(2, 257)},
     "pipeline needs at most 256 classes, got 257"),
    # a fractional class labeled background; True was read as class 1
    ({"skip_classes": {1.5}}, "skip class must be an int in [0, 3], got 1.5"),
    ({"skip_classes": {True}},
     "skip class must be an int in [0, 3], got True"),
    ({"skip_classes": 5}, "skip_classes must be a set of ints, got 5"),
    ({"skip_classes": [[0]]}, "skip_classes must be a set of ints, got [[0]]"),
    ({"centers": 5}, "centers must be a ClassCenterFile, not int"),
    ({"rule": 5}, "rule must be a DetectionRule, not int"),
    # "no" ran the Gaussian and 0 turned the median off
    ({"gaussian": "no"}, "gaussian must be a bool, not str"),
    ({"median": 0}, "median must be a bool, not int"),
    ({"gaussian": None}, "gaussian must be a bool, not NoneType"),
    # the entry points' own arguments: each was an AttributeError,
    # IndexError or TypeError from inside the chain
    (lambda: run_pipeline(None, FRAME),
     "config must be a PipelineConfig, not NoneType"),
    (lambda: verify_frame(None, FRAME),
     "config must be a PipelineConfig, not NoneType"),
    (lambda: run_pipeline(PipelineConfig(), rgb_to_cbcr(FRAME)),
     "image must be an ImageRGB, not ImageCbCr"),
    # the conversion's own check: verify_frame calls it on the whole frame
    (lambda: verify_frame(PipelineConfig(), rgb_to_cbcr(FRAME)),
     "image must be an ImageRGB, not ImageCbCr"),
    (lambda: run_pipeline(PipelineConfig(), FRAME.data),
     "image must be an ImageRGB, not ndarray"),
    # the stages' own checks: a chroma median was taken over the
    # interleaved channels, and an array was an AttributeError
    (lambda: gaussian3x3(FRAME), "image must be an ImageCbCr, not ImageRGB"),
    (lambda: gaussian3x3(rgb_to_cbcr(FRAME).data),
     "image must be an ImageCbCr, not ndarray"),
    (lambda: median3x3(rgb_to_cbcr(FRAME)),
     "image must be an ImageClass or ImageGray, not ImageCbCr"),
    (lambda: median3x3(np.zeros((2, 3), np.uint8)),
     "image must be an ImageClass or ImageGray, not ndarray"),
    (lambda: label_components(np.zeros((2, 3), np.uint8)),
     "image must be an ImageClass or ImageGray, not ndarray"),
] + [row[1:] for row in SETTING_ROWS],
   ids=["skip_past_end", "negative_skip", "target_past_end",
        "three_dim_centers", "classes_past_256", "fractional_skip",
        "bool_skip", "int_skip_set", "unhashable_skip", "int_centers",
        "int_rule", "str_gaussian", "int_median", "none_gaussian",
        "none_config_run", "none_config_verify",
        "chroma_frame_run", "chroma_frame_verify",
        "pixel_array_run", "rgb_gaussian", "array_gaussian",
        "chroma_median", "array_median", "array_labeling"]
   + [row[0] for row in SETTING_ROWS])
def test_config_refuses_class_indices_outside_the_center_file(kwargs, message):
    # the shipped center file has 4 classes; a row that is a call runs as is
    call = kwargs if callable(kwargs) else lambda: PipelineConfig(**kwargs)
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("num_levels, color", [
    (16, False), (4, False), (256, False), (256, True)])
def test_render_labels_reads_class_and_label_images_alike(num_levels, color):
    # a uint8 class image times 255 wraps unless widened first
    values = np.arange(256).reshape(16, 16)
    out = render_labels(ImageClass(values), num_levels, color)
    assert out == render_labels(ImageGray(values), num_levels, color)
    if not color:
        assert out.data[0, 1:4, 0].tolist() == [
            v * 255 // (num_levels - 1) for v in (1, 2, 3)]


@st.composite
def configs(draw):
    """A random center file of 2 to 8 classes, each filter on or off."""
    classes = draw(st.integers(2, 8))
    cells = draw(st.lists(st.integers(0, 255), min_size=2 * classes,
                          max_size=2 * classes))
    return PipelineConfig(
        centers=ClassCenterFile(2, classes, 8, cells),
        gaussian=draw(st.booleans()), median=draw(st.booleans()),
        skip_classes=draw(st.frozensets(st.integers(0, classes - 1))))


@st.composite
def verify_cases(draw):
    w, h = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    pixels = draw(st.binary(min_size=w * h * 3, max_size=w * h * 3))
    rgb = ImageRGB(np.frombuffer(pixels, dtype=np.uint8).reshape(h, w, 3))
    return draw(configs()), rgb


@given(verify_cases())
# Cb of (0, 0, 1) is exactly 128.5: the conversions' rounding tie
@example((PipelineConfig(), ImageRGB(np.array([[[0, 0, 1]]], np.uint8))))
@settings(max_examples=60, deadline=None)
def test_verify_frame_agrees_on_random_small_frames(case):
    config, rgb = case
    result = verify_frame(config, rgb)
    # a filter that is off is still checked
    assert list(result) == ["conversion", "gaussian", "classify", "median",
                            "labeling"]
    assert all(result.values())


@st.composite
def blocky_frames(draw):
    """Up to 40x40 random colors in blocks of 1 to 4 pixels a side, so
    class boundaries fall near and across strip edges."""
    w, h = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    bx, by = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    gw, gh = -(-w // bx), -(-h // by)
    pixels = draw(st.binary(min_size=gw * gh * 3, max_size=gw * gh * 3))
    grid = np.frombuffer(pixels, dtype=np.uint8).reshape(gh, gw, 3)
    return ImageRGB(grid.repeat(by, axis=0).repeat(bx, axis=1)[:h, :w])


@given(configs(), blocky_frames(), st.integers(1, 5))
# a noisy sign: a halo of one row for both filters changes 9 pixels. The
# drawn cases find that too, but take about 50 s to shrink it
@example(PipelineConfig(), disc_frame(40, 40, 8, 4, sigma=16), 2)
@settings(max_examples=150, deadline=None)
def test_strips_equal_the_whole_frame(config, rgb, k):
    # strips of k rows; a halo one row short of what the enabled filters
    # spoil, or a strip cut from its halo rows, shows at the strip edges
    expected = whole_frame_stages(config, rgb)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_STRIP", rgb.width * k)
        seg, (labels, components) = pipeline._run_stages(config, rgb)
    assert seg == expected
    assert (labels, components) == label_components(expected,
                                                    config.skip_classes)


@pytest.mark.parametrize("median", [True, False], ids=["median", "no_median"])
@pytest.mark.parametrize("gaussian", [True, False],
                         ids=["gaussian", "no_gaussian"])
def test_strips_equal_the_whole_frame_at_the_paper_size(gaussian, median):
    # 10 strips of 65 rows at the real strip size; the sign spans rows
    # 165-465, across five strip edges. At this noise a halo of one row
    # for both filters changes 13 pixels
    config = PipelineConfig(gaussian=gaussian, median=median)
    rgb = disc_frame(1000, 630, 120, 30, sigma=16)
    seg = pipeline._run_stages(config, rgb)[0]
    assert seg == whole_frame_stages(config, rgb)


def test_strips_bound_the_memory_of_a_frame():
    # whole-frame stages took 5.6 MB beyond the 3.2 MB they return on
    # this frame, strips 0.9 MB
    config, rgb = PipelineConfig(), disc_frame(1000, 630, 120, 30, sigma=16)
    pipeline._run_stages(config, rgb)  # build the cached tables first
    tracemalloc.start()
    try:
        out = pipeline._run_stages(config, rgb)  # held: `kept` counts it
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out[1][1]) > 1 and peak - kept <= 2_000_000


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


def test_a_numpy_clock_is_kept_as_a_float():
    # a float32 clock left est_fps a float32, which json refused, and its
    # Hz value overflowed float32 from about 3.4e32 MHz
    config = PipelineConfig(clock_mhz=np.float32(1e33))
    report, _ = run_pipeline(config, disc_frame(20, 20, 4, 2))
    assert type(report.est_fps) is float
    assert json.loads(json.dumps(report.to_dict()))["est_fps"] > 1e35
