"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line on success (visible with pytest -s);
a failure reads as the criterion number in the pytest report.
"""

import math
import random
import time

import numpy as np
import pytest

from signpipe.ccl import label_components
from signpipe.detector import DetectionRule, detect
from signpipe.filters import gaussian3x3, median3x3
from signpipe.image import ImageCbCr, ImageGray
from signpipe.mdc import (ClassCenterFile, PipelineModel, centers_from_json,
                          centers_to_json, classify, classify_image,
                          estimate_frame_rate, simulate_pipeline)
from signpipe.oracles import (flood_fill_label, stream_gaussian3x3,
                              stream_median3x3)
from signpipe.pipeline import PipelineConfig, ablation_stats, default_centers, run_pipeline
from signpipe.synthetic import background_frame, disc_frame
from signpipe.trainer import MeanShiftConfig, mean_shift

TABLE_CENTERS = [[127, 128], [88, 151], [116, 157], [109, 180]]


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_classifier_oracle_equivalence():
    # the production lookup table against the scalar argmin, per pixel
    rng = np.random.default_rng(1)
    start = time.monotonic()
    pairs = 0
    for classes in range(2, 9):
        for _ in range(20):
            f = ClassCenterFile(2, classes, 8,
                                rng.integers(0, 256, 2 * classes).tolist())
            frame = rng.integers(0, 256, (25, 30, 2), dtype=np.uint8)
            got = classify_image(f, ImageCbCr(frame)).data
            expected = [classify(f, x) for x in frame.reshape(-1, 2).tolist()]
            assert got.reshape(-1).tolist() == expected
            pairs += len(expected)
    elapsed = time.monotonic() - start
    assert pairs >= 100_000
    assert elapsed < 10.0
    report(1, f"classify_image == classify on {pairs} pairs in {elapsed:.1f}s")


def test_criterion_2_latency_formula_and_throughput():
    rng = random.Random(2)
    for dims in range(1, 5):
        for classes in range(2, 9):
            f = ClassCenterFile(dims, classes, 8,
                                [rng.randrange(256)
                                 for _ in range(dims * classes)])
            model = PipelineModel(dims, classes)
            expected = 3 * dims + math.ceil(math.log2(classes))
            assert model.latency == expected
            n = 1000
            schedule = [[rng.randrange(256) for _ in range(dims)]
                        for _ in range(n)]
            out = simulate_pipeline(model, f, schedule)
            assert len(out) == n
            for t, (cycle, label) in enumerate(out):
                assert cycle == t + expected  # delay exact, 1 label/cycle
                assert label == classify(f, schedule[t])
    report(2, "delay = 3*D + ceil(log2 C) and 1 label/cycle for all D, C")


def test_criterion_3_shipped_centers_round_trip():
    f = default_centers()
    assert f.centers() == TABLE_CENTERS
    again = centers_from_json(centers_to_json(f))
    assert again.cells == f.cells
    assert again.names == f.names
    for j, center in enumerate(f.centers()):
        assert classify(f, center) == j
        assert sum(abs(a - b) for a, b in zip(center, f.center(j))) == 0
    report(3, "shipped center file round-trips and self-classifies at distance 0")


def test_criterion_4_frame_rate_arithmetic():
    fps = estimate_frame_rate(170e6, 1000, 630)
    assert fps == pytest.approx(269.8, abs=0.1)
    assert abs(fps - 271.0) / 271.0 < 0.005  # the hardware datasheet rounds this to ~271
    report(4, f"170 MHz at 1000x630 -> {fps:.2f} FPS (~271 within 0.5%)")


def test_criterion_5_component_reduction_with_filters():
    frame = disc_frame(sigma=6.0, seed=42)
    config = PipelineConfig()
    start = time.monotonic()
    without, with_, reduction = ablation_stats(config, frame)
    elapsed = time.monotonic() - start
    assert reduction >= 90.0
    assert elapsed < 2 * 5.0  # two pipeline passes, < 5 s per frame
    report(5, f"filters cut components {without} -> {with_} "
              f"({reduction:.1f}% >= 90%) in {elapsed:.1f}s")


def test_criterion_6_ccl_oracle_equivalence():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        img = ImageGray(rng.integers(0, 3, (12, 12)))
        got_img, got = label_components(img, skip={0})
        exp_img, exp = flood_fill_label(img, skip={0})
        assert np.array_equal(got_img.data, exp_img.data)
        assert got == exp
    report(6, "run-based labeler matches flood fill on 1000 random images")


def test_criterion_7_filter_oracle_equivalence():
    rng = np.random.default_rng(7)
    for _ in range(100):
        plane = rng.integers(0, 256, (32, 32))
        img = ImageCbCr(np.stack([plane, plane], axis=-1).astype(np.uint8))
        assert gaussian3x3(img) == stream_gaussian3x3(img)
        labels = ImageGray(rng.integers(0, 4, (32, 32)))
        assert median3x3(labels) == stream_median3x3(labels)
    report(7, "both filters bit-exact against the line-buffered stream "
              "references on 100 images")


def test_criterion_8_end_to_end_synthetic_detection():
    radius = 30
    config = PipelineConfig()
    rep, _ = run_pipeline(config, disc_frame(radius=radius))
    assert len(rep.detections) == 1
    det = rep.detections[0]
    ratio = det.width / det.height
    assert 0.9 < ratio < 1.1
    assert abs(det.area - math.pi * radius ** 2) <= 0.05 * math.pi * radius ** 2
    rep_bg, _ = run_pipeline(config, background_frame())
    assert rep_bg.detections == []
    report(8, f"disc frame -> 1 detection (area {det.area}, ratio "
              f"{ratio:.2f}); background -> 0")


def test_criterion_9_rule_thresholds():
    rule = DetectionRule()

    def comp(cls, w, h, area):
        from signpipe.ccl import ComponentFeatures
        return ComponentFeatures(1, cls, area, 0, 0, w - 1, h - 1, 0, 0)

    assert len(detect([comp(1, 20, 20, 250)], rule)) == 1   # accept
    assert detect([comp(1, 10, 20, 250)], rule) == []       # ratio 0.5
    assert detect([comp(1, 20, 20, 200)], rule) == []       # area boundary
    assert detect([comp(2, 20, 20, 250)], rule) == []       # wrong class
    report(9, "accept / ratio-reject / area-boundary-reject / class-reject")


def test_criterion_10_mean_shift_planted_recovery():
    rng = np.random.default_rng(10)
    planted = [(90, 150), (180, 60)]
    samples = np.vstack([rng.normal(p, 3.0, (500, 2)) for p in planted])
    samples = np.clip(np.floor(samples + 0.5), 0, 255)
    cfg = MeanShiftConfig(bandwidth=0.08)
    res = mean_shift(samples, cfg)
    res2 = mean_shift(samples, cfg)
    assert res.modes == res2.modes and res.support == res2.support
    assert len(res.modes) == 2
    recovered = sorted(res.modes)
    for mode, truth in zip(recovered, sorted(planted)):
        assert abs(mode[0] - truth[0]) <= 2
        assert abs(mode[1] - truth[1]) <= 2
    report(10, f"two planted blobs recovered as modes {res.modes}")
