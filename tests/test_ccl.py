import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from signpipe.ccl import label_components
from signpipe.image import ImageClass, ImageGray
from signpipe.oracles import flood_fill_label


def gray(rows):
    arr = np.array(rows)
    return ImageGray(arr)


def class_images(max_side=12, num_classes=3):
    """(image, skip set) pairs; the skip set is empty, {0}, or any
    non-empty set of classes."""
    images = st.integers(1, max_side).flatmap(
        lambda w: st.integers(1, max_side).flatmap(
            lambda h: st.lists(st.integers(0, num_classes - 1),
                               min_size=w * h, max_size=w * h).map(
                lambda vals: ImageClass(np.array(vals).reshape(h, w)))))
    skips = st.one_of(st.just(frozenset()), st.just(frozenset({0})),
                      st.frozensets(st.integers(0, num_classes - 1),
                                    min_size=1))
    return st.tuples(images, skips)


@st.composite
def meanders(draw, max_side=64):
    """(image, {0}) pairs of a class-1 path on class 0: horizontal runs
    from left to right, each one row above or below the last and starting
    in the column where it ends. The path turns back at each run unless
    drawn to go on, so two rows of runs take turns and link like the teeth
    of two combs: a chain the union resolves over several rounds."""
    h, w = draw(st.integers(2, max_side)), draw(st.integers(1, max_side))
    a = np.zeros((h, w), dtype=np.uint8)
    y, x, step = draw(st.integers(0, h - 1)), 0, 1
    while x < w:
        n = draw(st.integers(1, 6))
        a[y, x:x + n + 1] = 1
        x += n
        if not draw(st.booleans()):
            step = -step
        if not 0 <= y + step < h:
            step = -step
        y += step
    return ImageClass(a), frozenset({0})


def serpentine(n):
    """One component snaking down all n rows: full rows of class 1 on
    even rows, joined at alternating ends."""
    a = np.zeros((n, n), dtype=int)
    a[::2] = 1
    for y in range(1, n, 2):
        a[y, n - 1 if y % 4 == 1 else 0] = 1
    return ImageGray(a)


def spiral(n):
    """One class-1 corridor winding inward from the top-left corner."""
    a = np.zeros((n, n), dtype=int)
    y = x = 0
    dy, dx = 0, 1
    a[0, 0] = 1
    turns = 0
    while turns < 2:
        ny, nx, fy, fx = y + dy, x + dx, y + 2 * dy, x + 2 * dx
        ahead_free = 0 <= ny < n and 0 <= nx < n and a[ny, nx] == 0
        beyond_taken = 0 <= fy < n and 0 <= fx < n and a[fy, fx] == 1
        if ahead_free and not beyond_taken:
            y, x = ny, nx
            a[y, x] = 1
            turns = 0
        else:
            dy, dx = dx, -dy
            turns += 1
    return ImageGray(a)


class TestLabelComponents:
    def test_uniform_2x2(self):
        labels, feats = label_components(gray([[1, 1], [1, 1]]))
        assert np.all(labels.data == 1)
        assert len(feats) == 1
        c = feats[0]
        assert (c.class_index, c.area) == (1, 4)
        assert c.bbox == (0, 0, 1, 1)
        assert c.centroid == (0.5, 0.5)

    def test_u_shape_merges(self):
        # two arms meet at the bottom row; their runs join in one union
        labels, feats = label_components(gray([[1, 0, 1], [1, 1, 1]]),
                                         skip={0})
        assert len(feats) == 1
        assert feats[0].area == 5
        assert labels.data[0, 1] == 0

    def test_checkerboard_diagonals_disconnected(self):
        _, feats = label_components(gray([[1, 0], [0, 1]]))
        assert len(feats) == 4
        assert all(c.area == 1 for c in feats)

    def test_skip_produces_reserved_zero(self):
        labels, feats = label_components(gray([[0, 1], [0, 1]]), skip={0})
        assert np.array_equal(labels.data, [[0, 1], [0, 1]])
        assert len(feats) == 1

    def test_ids_dense_in_first_encounter_order(self):
        labels, feats = label_components(
            gray([[1, 0, 2], [1, 0, 2], [0, 0, 2]]), skip={0})
        assert labels.data[0, 0] == 1
        assert labels.data[0, 2] == 2
        assert [c.class_index for c in feats] == [1, 2]


class TestRunLinks:
    @pytest.mark.parametrize("rows, skip, count", [
        # one lower run under three upper runs of its class
        ([[1, 0, 1, 0, 1], [1, 1, 1, 1, 1]], {0}, 1),
        ([[1, 0, 1, 0, 1], [1, 1, 1, 1, 1]], set(), 3),
        # the mirror: one upper run over three lower runs
        ([[1, 1, 1, 1, 1], [1, 0, 1, 0, 1]], {0}, 1),
        ([[1, 1, 1, 1, 1], [1, 0, 1, 0, 1]], set(), 3),
        # the lower run's ends sit under runs of another class
        ([[2, 1, 1, 1, 2], [1, 1, 1, 1, 1]], set(), 3),
        ([[2, 2, 0, 2, 2], [1, 1, 1, 1, 1]], {0}, 3),
        ([[1, 2, 2, 2, 1], [1, 1, 1, 1, 1]], set(), 2),
        # one row, one column
        ([[1, 1, 0, 2, 2, 1]], set(), 4),
        ([[1], [1], [0], [2], [2], [1]], {0}, 3),
    ], ids=["comb", "comb_no_skip", "mirror", "mirror_no_skip",
            "ends_under_another_class", "ends_under_another_class_skip",
            "ends_under_the_same_class", "one_row", "one_column"])
    def test_matches_flood_fill(self, rows, skip, count):
        img = ImageClass(np.array(rows))
        got_img, got = label_components(img, skip)
        exp_img, exp = flood_fill_label(img, skip)
        assert np.array_equal(got_img.data, exp_img.data)
        assert got == exp
        assert len(got) == count


class TestCountComponents:
    def test_all_background(self):
        assert len(label_components(gray([[0, 0], [0, 0]]), skip={0})[1]) == 0

    def test_u_shape(self):
        assert len(label_components(gray([[1, 0, 1], [1, 1, 1]]),
                                    skip={0})[1]) == 1

    def test_isolated_pixels(self):
        img = gray([[1, 0, 1, 0, 1], [0, 0, 0, 0, 0]])
        assert len(label_components(img, skip={0})[1]) == 3


class TestFloodFillEquivalence:
    @given(st.one_of(class_images(), meanders()))
    @example((gray([[1, 1, 0, 2, 2, 1, 1, 1, 0, 0, 2]]), frozenset({0})))
    @example((gray([[1], [1], [0], [2], [2], [1], [1], [0], [2]]),
              frozenset({0})))
    @example((gray([[0, 2, 2], [2, 0, 0]]), frozenset({0, 2})))
    @example((gray([[0, 1, 1, 2], [0, 0, 1, 2], [2, 1, 1, 0]]), frozenset()))
    @example((gray([[2, 0, 2, 0, 2, 2, 2], [2, 0, 2, 2, 2, 0, 2],
                    [2, 2, 2, 0, 0, 0, 0]]), frozenset({0})))
    @example((serpentine(21), frozenset({0})))
    @example((spiral(21), frozenset({0})))
    @settings(max_examples=250, deadline=None)
    def test_matches_oracle(self, case):
        img, skip = case
        got_img, got = label_components(img, skip)
        exp_img, exp = flood_fill_label(img, skip)
        assert np.array_equal(got_img.data, exp_img.data)
        assert got == exp

    def test_winding_shapes_are_one_component(self):
        for img in (serpentine(21), spiral(21)):
            _, feats = label_components(img, skip={0})
            assert len(feats) == 1
            assert feats[0].area == int(img.data.sum())

    @given(class_images())
    @settings(max_examples=100, deadline=None)
    def test_area_partition(self, case):
        img, skip = case
        _, feats = label_components(img, skip)
        skipped = int(np.isin(img.data, list(skip)).sum())
        assert sum(c.area for c in feats) + skipped == img.width * img.height

    @given(class_images())
    @settings(max_examples=100, deadline=None)
    def test_components_are_single_class(self, case):
        img, skip = case
        labels, feats = label_components(img, skip)
        # a record's id is its value in the label image, 1..N in order
        assert [c.id for c in feats] == list(range(1, len(feats) + 1))
        for c in feats:
            assert np.count_nonzero(labels.data == c.id) == c.area
            classes = set(img.data[labels.data == c.id].tolist())
            assert classes == {c.class_index}
            assert c.class_index not in skip

    @given(class_images())
    @settings(max_examples=100, deadline=None)
    def test_feature_invariants(self, case):
        img, skip = case
        _, feats = label_components(img, skip)
        for c in feats:
            assert c.area >= 1
            assert c.min_x <= c.max_x and c.min_y <= c.max_y
            assert c.area <= c.width * c.height
            gx, gy = c.centroid
            assert c.min_x <= gx <= c.max_x
            assert c.min_y <= gy <= c.max_y
