import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signpipe.ccl import ComponentFeatures
from signpipe.detector import Detection, DetectionRule, annotate, detect
from signpipe.image import ImageRGB

from refusals import int_refusals


def component(class_index=1, w=20, h=20, area=250, x0=0, y0=0):
    return ComponentFeatures(class_index, area, x0, y0, x0 + w - 1,
                             y0 + h - 1, area * x0, area * y0)


class TestDetect:
    def test_accepts_square_yellow(self):
        assert len(detect([component()], DetectionRule())) == 1

    def test_rejects_narrow_ratio(self):
        # 10/20 = 0.5 is below the lower ratio bound
        assert detect([component(w=10, h=20)], DetectionRule()) == []

    def test_rejects_area_at_boundary(self):
        # area must be strictly greater than the threshold
        assert detect([component(area=200)], DetectionRule()) == []

    def test_rejects_wrong_class(self):
        assert detect([component(class_index=2)], DetectionRule()) == []

    def test_ratio_bounds_strict(self):
        rule = DetectionRule()
        assert detect([component(w=7, h=10, area=250)], rule) == []   # == 0.7
        assert detect([component(w=30, h=10, area=250)], rule) == []  # == 3
        assert len(detect([component(w=29, h=10, area=250)], rule)) == 1

    def test_exact_rational_comparison(self):
        rule = DetectionRule(ratio_min=0.7)
        assert rule.ratio_min == Fraction(7, 10)
        # 7/10 must not slip past the bound via float representation
        assert detect([component(w=70, h=100, area=5000)], rule) == []

    def test_output_subset_in_order(self):
        comps = [component(), component(class_index=0), component(x0=40)]
        out = detect(comps, DetectionRule())
        assert [d.component_id for d in out] == [1, 3]

    @given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 1600),
           st.integers(100, 400))
    @settings(max_examples=100)
    def test_area_threshold_monotonic(self, w, h, area, area_min):
        comps = [component(w=w, h=h, area=min(area, w * h))]
        loose = detect(comps, DetectionRule(area_min=area_min))
        tight = detect(comps, DetectionRule(area_min=area_min + 50))
        assert set(d.component_id for d in tight) <= set(
            d.component_id for d in loose)

    @given(st.integers(1, 40), st.integers(1, 40))
    @settings(max_examples=100)
    def test_ratio_window_monotonic(self, w, h):
        comps = [component(w=w, h=h, area=w * h)]
        narrow = detect(comps, DetectionRule(ratio_min=0.9, ratio_max=1.2,
                                             area_min=1))
        wide = detect(comps, DetectionRule(ratio_min=0.5, ratio_max=4,
                                           area_min=1))
        assert set(d.component_id for d in narrow) <= set(
            d.component_id for d in wide)

    def test_int_too_long_for_str_is_refused_as_a_decimal(self):
        with pytest.raises(ValueError, match="^ratio_max must be a finite "
                           "decimal, got '<int too long>'"):
            DetectionRule(ratio_max=10 ** 5000)

    def test_rule_invariants(self):
        with pytest.raises(ValueError):
            DetectionRule(ratio_min=3, ratio_max=0.7)
        rows = [({name: v}, message)
                for name, lo in [("target_class", 0), ("area_min", 1)]
                for _, v, message in int_refusals(name, lo)]
        # a fractional target matched no class; a nan area passed every test
        rows += [({"target_class": 1.5},
                  "target_class must be an int >= 0, got 1.5"),
                 ({"area_min": float("nan")},
                  "area_min must be an int >= 1, got nan")]
        for kwargs, message in rows:
            with pytest.raises(ValueError, match=re.escape(message)):
                DetectionRule(**kwargs)


class TestAnnotate:
    def blank(self, w=30, h=30):
        return ImageRGB(w, h, np.full((h, w, 3), 50, dtype=np.uint8))

    def test_empty_list_unchanged(self):
        img = self.blank()
        assert annotate(img, []) == img

    def test_full_image_border_ring(self):
        img = self.blank(10, 8)
        det = Detection(1, (0, 0, 9, 7), 80, (4.5, 3.5))
        out = annotate(img, [det])
        changed = np.any(out.data != img.data, axis=2)
        assert changed.sum() == 2 * 10 + 2 * 8 - 4
        assert tuple(out.data[0, 0]) == (0, 255, 0)
        assert tuple(out.data[1, 1]) == (50, 50, 50)

    def test_two_disjoint_rectangles(self):
        img = self.blank()
        dets = [Detection(1, (1, 1, 8, 6), 48, (4.5, 3.5)),
                Detection(2, (12, 10, 21, 24), 150, (16.5, 17.0))]
        out = annotate(img, dets)
        changed = int(np.any(out.data != img.data, axis=2).sum())
        expected = sum(2 * (x1 - x0 + 1) + 2 * (y1 - y0 + 1) - 4
                       for x0, y0, x1, y1 in (d.bbox for d in dets))
        assert changed == expected

    def test_out_of_bounds_rejected(self):
        img = self.blank(5, 5)
        with pytest.raises(ValueError):
            annotate(img, [Detection(1, (0, 0, 5, 4), 1, (0, 0))])

    def test_input_not_mutated(self):
        img = self.blank()
        before = img.data.copy()
        annotate(img, [Detection(1, (2, 2, 6, 6), 25, (4, 4))])
        assert np.array_equal(img.data, before)
