import itertools
import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from signpipe import trainer
from signpipe.image import rgb_to_cbcr
from signpipe.mdc import centers_from_json, centers_to_json, ClassCenterFile
from signpipe.oracles import loop_converge, loop_merge_modes
from signpipe.synthetic import disc_frame
from signpipe.trainer import (ClusterResult, MeanShiftConfig, centers_to_file,
                              converge, mean_shift, merge_modes)

from refusals import int_refusals, real_refusals


def two_blobs(seed=7, n=500, sigma=3.0):
    rng = np.random.default_rng(seed)
    a = rng.normal((90, 150), sigma, (n, 2))
    b = rng.normal((180, 60), sigma, (n, 2))
    return np.clip(np.floor(np.vstack([a, b]) + 0.5), 0, 255)


class TestMeanShift:
    def test_identical_samples_are_fixed_point(self):
        res = mean_shift([(88, 151)] * 12, MeanShiftConfig())
        assert res.modes == [(88, 151)]
        assert res.support == [3]  # 12 samples, seed stride 4

    def test_single_basin_converges_to_mean(self):
        samples = [(100, 100), (102, 100), (100, 102), (102, 102)]
        res = mean_shift(samples, MeanShiftConfig(bandwidth=0.4, seed_stride=1))
        assert res.modes == [(101, 101)]
        assert res.support == [4]

    def test_planted_two_blob_recovery(self):
        res = mean_shift(two_blobs(), MeanShiftConfig(bandwidth=0.08))
        assert len(res.modes) == 2
        planted = [(90, 150), (180, 60)]
        for mode in res.modes:
            best = min(planted,
                       key=lambda p: (p[0] - mode[0]) ** 2 + (p[1] - mode[1]) ** 2)
            assert abs(mode[0] - best[0]) <= 2
            assert abs(mode[1] - best[1]) <= 2

    @pytest.mark.parametrize("frame, config, want, count", [
        # the README's `synth --sigma 4` frame at the defaults
        (disc_frame(sigma=4), MeanShiftConfig(),
         {(127, 128): 8752, (88, 151): 711, (116, 157): 537}, 3),
        # two modes whose exact mean in Cr lies on a half level, 90.5 and
        # 147.5, which rounds half up
        (disc_frame(sigma=10, seed=1),
         MeanShiftConfig(bandwidth=0.02, seed_stride=1),
         {(140, 91): 1, (58, 148): 3}, 50),
    ])
    def test_trained_modes_are_the_recorded_ones(self, frame, config, want,
                                                 count):
        res = mean_shift(rgb_to_cbcr(frame).data.reshape(-1, 2), config)
        got = dict(zip(res.modes, res.support))
        assert len(res.modes) == count
        assert {mode: got.get(mode) for mode in want} == want

    def test_deterministic(self):
        cfg = MeanShiftConfig(bandwidth=0.08)
        samples = two_blobs()
        r1 = mean_shift(samples, cfg)
        r2 = mean_shift(samples, cfg)
        assert r1.modes == r2.modes and r1.support == r2.support

    def test_modes_are_stationary(self):
        cfg = MeanShiftConfig(bandwidth=0.08)
        samples = two_blobs()
        pts = np.asarray(samples) / 255.0
        for mode in mean_shift(samples, cfg).modes:
            y = np.array(mode) / 255.0
            d2 = ((pts - y) ** 2).sum(axis=1)
            step = pts[d2 <= cfg.bandwidth ** 2].mean(axis=0) - y
            # stationary up to the integer rounding of the reported mode
            assert np.hypot(*step) < 1.0 / 255.0

    def test_basin_consistency(self):
        cfg = MeanShiftConfig(bandwidth=0.08, seed_stride=1)
        samples = two_blobs(n=100)
        res = mean_shift(samples, cfg)
        modes = np.asarray(res.modes) / 255.0
        for s in np.asarray(samples) / 255.0:
            d = np.hypot(*(modes - s).T)
            assert d.min() <= cfg.bandwidth * 2  # within its basin's reach

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            mean_shift([], MeanShiftConfig())

    def test_config_validation(self):
        rows = [({"bandwidth": 0}, "bandwidth must be finite and > 0, got 0"),
                ({"bandwidth": float("nan")},
                 "bandwidth must be finite and > 0, got nan"),
                ({"bandwidth": float("inf")},
                 "bandwidth must be finite and > 0, got inf"),
                ({"bandwidth": 1e200}, "bandwidth must be finite and > 0, "
                 "got 1e+200; its square must be finite too"),
                ({"bandwidth": 10**160}, "bandwidth must be finite and > 0, "
                 f"got 1{'0' * 160}; its square must be finite too"),
                ({"bandwidth": 10**400}, "bandwidth must be finite and > 0, "
                 "got 10000000000000000000... (401 long)"),
                ({"seed_stride": 0}, "seed_stride must be an int >= 1, got 0"),
                # past the 4300 digits Python prints, shown by its size
                ({"seed_stride": -10**5000},
                 "seed_stride must be an int >= 1, got <int of 16610 bits>"),
                # read as a stride of 1 before
                ({"seed_stride": True},
                 "seed_stride must be an int >= 1, got True")]
        rows += [({"seed_stride": v}, message)
                 for _, v, message in int_refusals("seed_stride", 1)]
        rows += [({"bandwidth": v}, message)
                 for _, v, message in real_refusals("bandwidth")]
        # numpy floats are read as Python floats, so nothing overflows
        rows += [({"bandwidth": np.float32("nan")},
                  "bandwidth must be finite and > 0, got np.float32(nan)"),
                 ({"bandwidth": np.float64(1e200)},
                  "bandwidth must be finite and > 0, got 1e+200; its "
                  "square must be finite too")]
        calls = [(lambda kwargs=kwargs: MeanShiftConfig(**kwargs), message)
                 for kwargs, message in rows]
        # a config of another type
        calls += [(lambda: mean_shift([(1, 2)], None),
                   "config must be a MeanShiftConfig, not NoneType"),
                  (lambda: converge([(1, 2)], {}),
                   "config must be a MeanShiftConfig, not dict")]
        for call, message in calls:
            with pytest.raises(ValueError, match=re.escape(message)):
                call()

    @pytest.mark.parametrize("bandwidth", [np.float32(0.05),
                                           np.float32(3e19)])
    def test_numpy_float_bandwidth_is_kept_as_a_float(self, bandwidth):
        # compared in float32 with the largest float, 0.05 overflowed in a
        # cast, and 3e19 passed the square rule as an inf square
        cfg = MeanShiftConfig(bandwidth=bandwidth)
        assert type(cfg.bandwidth) is float
        assert cfg.bandwidth == float(bandwidth)
        assert math.isfinite(cfg.bandwidth ** 2)

    @pytest.mark.parametrize("samples", [
        [(300, 5)], [(-7, 3)], [(float("nan"), 3)], [(1.5, 2)],
        [(1, 2, 3)], [1, 2], [[1, 2], [3]],
    ])
    def test_samples_must_be_chroma_bytes(self, samples):
        with pytest.raises(ValueError):
            mean_shift(samples, MeanShiftConfig())

    def test_caller_samples_untouched(self):
        samples = two_blobs(n=20)
        before = samples.copy()
        mean_shift(samples, MeanShiftConfig(bandwidth=0.08))
        assert np.array_equal(samples, before)

    @pytest.mark.parametrize("seed_stride", [16, 4])
    def test_peak_memory_is_bounded(self, seed_stride):
        # 16,384 samples, 77% of them distinct values: a step holds two
        # blocks of trainer._BLOCK float64 (4 MB) at any sample or seed
        # count
        rng = np.random.default_rng(5)
        corners = np.array([[64, 64], [64, 192], [192, 64], [192, 192]])
        samples = np.clip(np.rint(corners[rng.integers(0, 4, 16384)]
                                  + rng.normal(0, 24, (16384, 2))), 0, 255)
        tracemalloc.start()
        try:
            res = mean_shift(samples,
                             MeanShiftConfig(bandwidth=0.2,
                                             seed_stride=seed_stride))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(res.modes) == 4
        assert peak < 8 * 2**20


# (samples, config) pairs the trainer must reproduce bit for bit
EXAMPLES = {
    "identical": ([(88, 151)] * 12, MeanShiftConfig()),
    # (103 - 100) / 255 rounds to just outside the radius, 3 / 255 to on it
    "one_bandwidth_apart": ([(100, 100), (103, 100), (0, 0), (3, 0)],
                            MeanShiftConfig(bandwidth=3 / 255, seed_stride=1)),
    "stops_at_max_iterations": (two_blobs(n=60, sigma=9.0),
                                MeanShiftConfig(bandwidth=0.08)),
    "stride_above_n": ([(10, 10), (12, 11), (200, 3)],
                       MeanShiftConfig(bandwidth=0.05, seed_stride=5)),
    "two_blobs": (two_blobs(), MeanShiftConfig(bandwidth=0.08)),
    "two_blobs_stride_1": (two_blobs(n=100),
                           MeanShiftConfig(bandwidth=0.08, seed_stride=1)),
    "noisy_disc": (rgb_to_cbcr(disc_frame(48, 48, 12, 5, 6.0, 3))
                   .data.reshape(-1, 2),
                   MeanShiftConfig(bandwidth=0.05, seed_stride=2)),
    # hundreds of distinct values, most of them alone in their cell
    "uniform": (np.random.default_rng(3).integers(0, 256, (800, 2)),
                MeanShiftConfig(bandwidth=0.05, seed_stride=3)),
    # lattices k levels apart at bandwidth k / 255: run ends fall on
    # levels, and neighbors lie on the radius
    "lattice_4_levels": ([(100 + 4 * i, 37 + 4 * j) for i in range(5)
                          for j in range(5)],
                         MeanShiftConfig(bandwidth=4 / 255, seed_stride=1)),
    "lattice_7_levels_at_the_edge": ([(7 * i, 7 * j) for i in range(3)
                                      for j in range(7)],
                                     MeanShiftConfig(bandwidth=7 / 255,
                                                     seed_stride=1)),
    # the seed (98, 105) steps to (100, 104), exactly 5 levels from
    # (104, 101), a 3-4-5 triangle: a mean an ulp off 100/255 decides
    # that sample the other way
    "bandwidth_tie": ([(98, 105), (104, 101), (98, 98), (102, 103)],
                      MeanShiftConfig(bandwidth=5 / 255, seed_stride=1)),
    # every row and level within reach of every point
    "bandwidth_2": (two_blobs(n=40, sigma=20.0),
                    MeanShiftConfig(bandwidth=2.0, seed_stride=3)),
    # a bandwidth whose square is near the largest float
    "bandwidth_1e154": (two_blobs(n=40, sigma=20.0),
                        MeanShiftConfig(bandwidth=1e154, seed_stride=3)),
}


@st.composite
def training_sets(draw):
    """Clusters plus uniform noise, 1-400 integer samples, in drawn order."""
    byte = st.integers(0, 255)
    centers = draw(st.lists(st.tuples(byte, byte), min_size=1, max_size=3))
    r = draw(st.integers(0, 12))
    near = st.builds(lambda c, dx, dy: (min(max(c[0] + dx, 0), 255),
                                        min(max(c[1] + dy, 0), 255)),
                     st.sampled_from(centers), st.integers(-r, r),
                     st.integers(-r, r))
    samples = (draw(st.lists(near, max_size=300))
               + draw(st.lists(st.tuples(byte, byte), max_size=100)))
    if not samples:
        samples = [draw(st.tuples(byte, byte))]
    return draw(st.permutations(samples))


class TestAgainstLoopReference:
    @pytest.mark.parametrize("name", EXAMPLES)
    def test_converged_points_bit_identical(self, name, monkeypatch):
        samples, cfg = EXAMPLES[name]
        if name == "stops_at_max_iterations":
            monkeypatch.setattr(trainer, "MAX_ITERATIONS", 2)
        assert np.array_equal(converge(samples, cfg),
                              loop_converge(samples, cfg))

    @settings(max_examples=60, deadline=None)
    @given(samples=training_sets(),
           # k / 255 puts samples exactly at the bandwidth
           bandwidth=st.one_of(st.floats(0.01, 0.5),
                               st.integers(1, 60).map(lambda k: k / 255)),
           stride=st.integers(1, 5),
           max_iterations=st.one_of(st.just(500), st.integers(1, 4)))
    def test_same_modes_and_support(self, samples, bandwidth, stride,
                                    max_iterations):
        cfg = MeanShiftConfig(bandwidth=bandwidth, seed_stride=stride)
        with mock.patch.object(trainer, "MAX_ITERATIONS", max_iterations):
            got = mean_shift(samples, cfg)
            want = loop_merge_modes(loop_converge(samples, cfg),
                                    cfg.bandwidth / 2)
        assert got.modes == want.modes
        assert got.support == want.support

    @settings(max_examples=100, deadline=None)
    @given(points=st.lists(st.tuples(
               st.one_of(st.integers(0, 255).map(lambda v: v / 255.0),
                         st.floats(0, 1)),
               st.one_of(st.integers(0, 255).map(lambda v: v / 255.0),
                         st.floats(0, 1))), min_size=1, max_size=8),
           bandwidth=st.one_of(st.integers(1, 300).map(lambda k: k / 255),
                               st.floats(1e-9, 3.0), st.just(1e154)))
    # a cell exactly at the bandwidth that the circle rounds out of the run
    @example(points=[(0.0, 33 / 255)], bandwidth=20 / 255)
    def test_runs_hold_the_cells_within_the_bandwidth(self, points,
                                                      bandwidth):
        # each point's runs cover exactly the cells 256*Cb + Cr that the
        # per-seed loop's distance puts within the bandwidth
        p = np.array(points)
        reach = min(256, math.ceil(255 * bandwidth))
        start, stop = trainer._runs(p, bandwidth ** 2, reach,
                                    min(256, 2 * reach + 3), 0)
        level = np.arange(256) / 255.0
        for k, (p0, p1) in enumerate(p):
            inside = (np.square(level - p0)[:, None]
                      + np.square(level - p1)[None, :]) <= bandwidth ** 2
            got = np.zeros(1 << 16, bool)
            for lo, hi in zip(start[k], stop[k]):
                got[lo:hi] = True
            assert np.array_equal(got, inside.reshape(-1))

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_small_blocks(self, rows, monkeypatch):
        # `rows` distinct seeds step per block: a block holds
        # 2 * _BLOCK // (10 * span) seeds, span being the Cb rows a point
        # can reach
        samples, cfg = EXAMPLES["noisy_disc"]
        span = 2 * math.ceil(255 * cfg.bandwidth) + 3
        monkeypatch.setattr(trainer, "_BLOCK", rows * 5 * span)
        points = []
        runs = trainer._runs
        monkeypatch.setattr(trainer, "_runs",
                            lambda p, *args: points.append(len(p))
                            or runs(p, *args))
        assert np.array_equal(converge(samples, cfg),
                              loop_converge(samples, cfg))
        assert max(points) == rows

    @pytest.mark.parametrize("bandwidth", [3 / 255, 0.05, 0.2, 0.4])
    def test_merge_at_the_radius(self, bandwidth):
        # points at the merge radius from a mode, in drawn directions, and
        # one ulp either way on each axis: both answers occur, and the
        # merge decides as its reference does, through the same test
        radius = bandwidth / 2
        rng = np.random.default_rng(11)
        modes = rng.uniform(0.2, 0.8, (400, 2))
        angle = rng.uniform(0, 2 * np.pi, 400)
        points = modes + radius * np.column_stack([np.cos(angle),
                                                   np.sin(angle)])
        merged = 0
        for m, y in zip(modes, points):
            for y0, y1 in itertools.product(*[
                    (np.nextafter(v, -1.0), v, np.nextafter(v, 2.0))
                    for v in y]):
                converged = np.array([m, (y0, y1)])
                got = merge_modes(converged, radius)
                assert got == loop_merge_modes(converged, radius)
                merged += got.support == [2]
        assert 0 < merged < 400 * 9    # both answers occur

    def test_merge_with_a_subnormal_radius_squared(self):
        # 3.1e-162 and 3e-162 both square to 1e-323, two subnormal units,
        # so a squared-distance test would merge these two points
        converged = np.array([[0.0, 0.0], [3.1e-162, 0.0]])
        got = merge_modes(converged, 3e-162)
        assert got == loop_merge_modes(converged, 3e-162)
        assert got.support == [1, 1]


class TestCentersToFile:
    def test_round_trip_default_centers(self):
        modes = [(127, 128), (88, 151), (116, 157), (109, 180)]
        result = ClusterResult(modes, [400, 300, 200, 100])
        text = centers_to_file(result,
                               ["background", "yellow", "red_low", "red_high"])
        f = centers_from_json(text)
        assert f.centers() == [list(m) for m in modes]
        assert centers_from_json(centers_to_json(f)).cells == f.cells

    @given(st.lists(st.tuples(st.integers(0, 255), st.integers(0, 255)),
                    min_size=2, max_size=8))
    def test_trained_modes_read_back(self, modes):
        result = ClusterResult(modes, [1] * len(modes))
        f = centers_from_json(centers_to_file(result, None))
        assert f.centers() == [list(m) for m in modes]

    def test_single_mode_raises(self):
        # written, but the classifier needs 2 classes, so reading it back
        # (as `detect` does) raises
        text = centers_to_file(ClusterResult([(88, 151)], [10]), ["only"])
        assert json.loads(text)["classes"][0]["center"] == [88, 151]
        with pytest.raises(ValueError,
                           match="num_classes must be an int >= 2, got 1"):
            centers_from_json(text)

    def test_layout(self):
        result = ClusterResult([(127, 128), (88, 151)], [5, 3])
        doc = {"resolution_bits": 8,
               "classes": [{"name": "bg", "center": [127, 128]},
                           {"name": "sign", "center": [88, 151]}]}
        assert (centers_to_file(result, ["bg", "sign"])
                == json.dumps(doc, indent=2) + "\n")

    def test_support_ties_order_by_cb(self):
        samples = [(10, 10)] * 8 + [(200, 200)] * 8
        res = mean_shift(samples, MeanShiftConfig(bandwidth=0.05, seed_stride=1))
        assert res.support == [8, 8]
        assert res.modes == [(10, 10), (200, 200)]

    def test_modes_and_support_must_pair_up(self):
        with pytest.raises(ValueError,
                           match="modes and support lengths differ"):
            ClusterResult([(1, 2), (3, 4)], [1])

    def test_name_count_mismatch(self):
        with pytest.raises(ValueError):
            centers_to_file(ClusterResult([(1, 2)], [1]), ["a", "b"])
