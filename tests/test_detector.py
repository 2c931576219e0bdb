import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signpipe.ccl import ComponentFeatures
from signpipe.detector import DetectionRule, annotate, detect
from signpipe.image import ImageRGB

from refusals import int_refusals


def component(class_index=1, w=20, h=20, area=250, x0=0, y0=0, id=1):
    return ComponentFeatures(id, class_index, area, x0, y0, x0 + w - 1,
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
        comps = [component(id=1), component(class_index=0, id=2),
                 component(x0=40, id=3)]
        out = detect(comps, DetectionRule())
        # the passing records themselves, not copies
        assert out == [comps[0], comps[2]]
        assert out[0] is comps[0] and out[1] is comps[2]

    @given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 1600),
           st.integers(100, 400))
    @settings(max_examples=100)
    def test_area_threshold_monotonic(self, w, h, area, area_min):
        comps = [component(w=w, h=h, area=min(area, w * h))]
        loose = detect(comps, DetectionRule(area_min=area_min))
        tight = detect(comps, DetectionRule(area_min=area_min + 50))
        assert set(d.id for d in tight) <= set(d.id for d in loose)

    @given(st.integers(1, 40), st.integers(1, 40))
    @settings(max_examples=100)
    def test_ratio_window_monotonic(self, w, h):
        comps = [component(w=w, h=h, area=w * h)]
        narrow = detect(comps, DetectionRule(ratio_min=0.9, ratio_max=1.2,
                                             area_min=1))
        wide = detect(comps, DetectionRule(ratio_min=0.5, ratio_max=4,
                                           area_min=1))
        assert set(d.id for d in narrow) <= set(d.id for d in wide)

    @given(st.data())
    @settings(max_examples=200)
    def test_integer_ratio_test_is_the_fraction_filter(self, data):
        # bounds from decimals with exponents up to MAX_EXPONENT or from a
        # component's own ratio, so some ratios sit exactly on a bound
        sides = st.tuples(st.integers(1, 2000), st.integers(1, 2000))
        shapes = data.draw(st.lists(sides, min_size=1, max_size=12))
        decimal = st.builds(lambda m, e: Fraction(m) * Fraction(10) ** e,
                            st.integers(1, 10 ** 9), st.integers(-400, 400))
        bound = decimal | st.sampled_from(shapes).map(
            lambda s: Fraction(*s))
        lo, hi = sorted(data.draw(st.lists(bound, min_size=2, max_size=2,
                                           unique=True)))
        rule = DetectionRule(ratio_min=lo, ratio_max=hi, area_min=1)
        comps = [component(class_index=data.draw(st.integers(0, 2)), w=w,
                           h=h, area=data.draw(st.integers(1, 4)))
                 for w, h in shapes]
        expected = [c for c in comps
                    if c.class_index == rule.target_class
                    and lo < Fraction(c.width, c.height) < hi
                    and c.area > rule.area_min]
        assert detect(comps, rule) == expected

    def test_int_too_long_for_str_is_refused_as_a_decimal(self):
        with pytest.raises(ValueError, match="^ratio_max must be a finite "
                           "decimal, got '<int of 16610 bits>'"):
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
        calls = [(lambda kwargs=kwargs: DetectionRule(**kwargs), message)
                 for kwargs, message in rows]
        # a rule of another type: an AttributeError from detect before
        calls += [(lambda: detect([component()], None),
                   "rule must be a DetectionRule, not NoneType")]
        for call, message in calls:
            with pytest.raises(ValueError, match=re.escape(message)):
                call()


class TestAnnotate:
    def blank(self, w=30, h=30):
        return ImageRGB(np.full((h, w, 3), 50, dtype=np.uint8))

    def test_empty_list_unchanged(self):
        img = self.blank()
        assert annotate(img, []) == img

    def test_full_image_border_ring(self):
        img = self.blank(10, 8)
        det = component(w=10, h=8)
        out = annotate(img, [det])
        changed = np.any(out.data != img.data, axis=2)
        assert changed.sum() == 2 * 10 + 2 * 8 - 4
        assert tuple(out.data[0, 0]) == (0, 255, 0)
        assert tuple(out.data[1, 1]) == (50, 50, 50)

    def test_two_disjoint_rectangles(self):
        img = self.blank()
        dets = [component(x0=1, y0=1, w=8, h=6),
                component(x0=12, y0=10, w=10, h=15)]
        out = annotate(img, dets)
        changed = int(np.any(out.data != img.data, axis=2).sum())
        expected = sum(2 * (x1 - x0 + 1) + 2 * (y1 - y0 + 1) - 4
                       for x0, y0, x1, y1 in (d.bbox for d in dets))
        assert changed == expected

    def test_out_of_bounds_rejected(self):
        img = self.blank(5, 5)
        with pytest.raises(ValueError):
            annotate(img, [component(w=6, h=5)])

    def test_input_not_mutated(self):
        img = self.blank()
        before = img.data.copy()
        annotate(img, [component(x0=2, y0=2, w=5, h=5)])
        assert np.array_equal(img.data, before)
