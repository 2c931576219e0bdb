import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
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
                ({"max_iterations": 0},
                 "max_iterations must be an int >= 1, got 0"),
                ({"max_iterations": -1},
                 "max_iterations must be an int >= 1, got -1"),
                ({"max_iterations": 2.5},
                 "max_iterations must be an int >= 1, got 2.5"),
                ({"seed_stride": 0}, "seed_stride must be an int >= 1, got 0"),
                # read as a stride of 1 before
                ({"seed_stride": True},
                 "seed_stride must be an int >= 1, got True")]
        rows += [({name: v}, message)
                 for name in ("max_iterations", "seed_stride")
                 for _, v, message in int_refusals(name, 1)]
        rows += [({"bandwidth": v}, message)
                 for _, v, message in real_refusals("bandwidth")]
        for kwargs, message in rows:
            with pytest.raises(ValueError, match=re.escape(message)):
                MeanShiftConfig(**kwargs)

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
                                MeanShiftConfig(bandwidth=0.08,
                                                max_iterations=2)),
    "stride_above_n": ([(10, 10), (12, 11), (200, 3)],
                       MeanShiftConfig(bandwidth=0.05, seed_stride=5)),
    "two_blobs": (two_blobs(), MeanShiftConfig(bandwidth=0.08)),
    "two_blobs_stride_1": (two_blobs(n=100),
                           MeanShiftConfig(bandwidth=0.08, seed_stride=1)),
    "noisy_disc": (rgb_to_cbcr(disc_frame(48, 48, 12, 5, 6.0, 3))
                   .data.reshape(-1, 2),
                   MeanShiftConfig(bandwidth=0.05, seed_stride=2)),
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
    def test_converged_points_bit_identical(self, name):
        samples, cfg = EXAMPLES[name]
        assert np.array_equal(converge(samples, cfg),
                              loop_converge(samples, cfg))

    @settings(max_examples=60, deadline=None)
    @given(samples=training_sets(),
           bandwidth=st.floats(0.01, 0.5),
           stride=st.integers(1, 5),
           max_iterations=st.one_of(st.just(500), st.integers(1, 4)))
    def test_same_modes_and_support(self, samples, bandwidth, stride,
                                    max_iterations):
        cfg = MeanShiftConfig(bandwidth=bandwidth, seed_stride=stride,
                              max_iterations=max_iterations)
        got = mean_shift(samples, cfg)
        want = loop_merge_modes(loop_converge(samples, cfg),
                                cfg.bandwidth / 2)
        assert got.modes == want.modes
        assert got.support == want.support

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_small_blocks(self, rows, monkeypatch):
        # `rows` distinct seeds step per block
        samples, cfg = EXAMPLES["noisy_disc"]
        distinct = len({tuple(s) for s in samples.tolist()})
        monkeypatch.setattr(trainer, "_BLOCK", rows * distinct)
        assert np.array_equal(converge(samples, cfg),
                              loop_converge(samples, cfg))

    @pytest.mark.parametrize("bandwidth", [3 / 255, 0.05, 0.2, 0.4])
    def test_merge_at_the_radius(self, bandwidth):
        # points at the merge radius from a mode, in drawn directions, and
        # one ulp either way on each axis: here the squared distance and
        # np.hypot can decide apart, and the merge must decide as np.hypot
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
        # 3.1e-162 and 3e-162 both square to 1e-323, two subnormal units
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
