import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from signpipe import mdc
from signpipe.image import ImageCbCr
from signpipe.mdc import (ClassCenterFile, PipelineModel, centers_from_json,
                          centers_to_json, classify, classify_image,
                          estimate_frame_rate, program_center,
                          simulate_pipeline)

from refusals import int_refusals, real_refusals

DEFAULT_CENTERS = [(127, 128), (88, 151), (116, 157), (109, 180)]


def default_file():
    return ClassCenterFile.from_centers(
        DEFAULT_CENTERS, names=["background", "yellow", "red_low", "red_high"])


def center_files():
    return st.integers(1, 4).flatmap(
        lambda d: st.integers(2, 8).flatmap(
            lambda c: st.lists(st.integers(0, 255), min_size=d * c,
                               max_size=d * c).map(
                lambda cells: ClassCenterFile(d, c, 8, cells))))


def json_text():
    """JSON documents, some shaped like a center file, and stray text."""
    values = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
        lambda kids: st.lists(kids, max_size=4)
        | st.dictionaries(st.text(max_size=4), kids, max_size=4),
        max_leaves=12)
    classes = st.lists(st.fixed_dictionaries(
        {"name": values | st.text(), "center": st.lists(values | st.integers(
            -2, 300), max_size=3)}), max_size=3)
    files = st.fixed_dictionaries({"classes": classes | values},
                                  optional={"resolution_bits": values})
    return (values | files).map(json.dumps) | st.text()


class TestRegisterFile:
    def test_program_and_read_back(self):
        f = ClassCenterFile(2, 4)
        program_center(f, 0, 127)
        assert f.cells[0] == 127

    def test_class_major_layout(self):
        f = default_file()
        # class 2 dim 1 lives at cell 2*2 + 1 = 5
        assert f.cells[5] == f.center(2)[1] == 157

    def test_address_bound(self):
        f = ClassCenterFile(2, 4)
        with pytest.raises(ValueError):
            program_center(f, 8, 0)

    def test_value_exceeding_resolution_rejected(self):
        f = ClassCenterFile(2, 4)
        with pytest.raises(ValueError):
            program_center(f, 0, 256)

    def test_cell_count_invariant(self):
        with pytest.raises(ValueError):
            ClassCenterFile(2, 4, cells=[0] * 7)

    @pytest.mark.parametrize("centers,count", [([], 0), ([(88, 151)], 1)])
    def test_fewer_than_two_classes(self, centers, count):
        with pytest.raises(ValueError, match=f"num_classes must be an int "
                                             f">= 2, got {count}"):
            ClassCenterFile.from_centers(centers)


# each integer setting of this module: (id, call with the value, the
# setting's name in the message, lo, hi)
INT_SETTINGS = [
    ("model_dims", lambda v: PipelineModel(v, 4), "dims", 1, None),
    ("model_classes", lambda v: PipelineModel(2, v), "num_classes", 2, None),
    ("model_bits", lambda v: PipelineModel(2, 4, v), "resolution_bits", 1, 32),
    ("file_dims", lambda v: ClassCenterFile(v, 2), "dims", 1, None),
    ("cell", lambda v: ClassCenterFile(1, 2, 8, [0, v]), "cell 1", 0, 255),
    ("program_cell", lambda v: program_center(ClassCenterFile(1, 2, 4), 0, v),
     "cell 0", 0, 15),
    ("address", lambda v: program_center(ClassCenterFile(1, 2), v, 0),
     "address", 0, 1),
    ("class_index", lambda v: ClassCenterFile(1, 2).center(v),
     "class index", 0, 1),
    ("frame_width", lambda v: estimate_frame_rate(170e6, v, 630), "width", 1,
     None),
    ("frame_height", lambda v: estimate_frame_rate(170e6, 1000, v), "height",
     1, None),
]
INT_ROWS = [(f"{sid}_{kind}", lambda call=call, v=v: call(v), message)
            for sid, call, name, lo, hi in INT_SETTINGS
            for kind, v, message in int_refusals(name, lo, hi)]
REAL_ROWS = [(f"frequency_{kind}",
              lambda v=v: estimate_frame_rate(v, 1000, 630), message)
             for kind, v, message in real_refusals("frequency")]


@pytest.mark.parametrize("call, message", [
    (lambda: ClassCenterFile(0, 2), "dims must be an int >= 1, got 0"),
    (lambda: ClassCenterFile(1, 2, 8, [0, 256]),
     "cell 1 must be an int in [0, 255], got 256"),
    (lambda: ClassCenterFile(1, 2, names=["a"]),
     "names length must equal num_classes"),
    (lambda: ClassCenterFile.from_centers([(1, 2), (3, 4)],
                                          names=["a", "b", "c"]),
     "names length must equal num_classes: 3 names for 2 classes"),
    # not regrouped into [[1, 2], [3, 4], [5, 6]]
    (lambda: ClassCenterFile.from_centers([[1, 2], [3], [4, 5, 6]]),
     "inconsistent center dimensions"),
    # the write port refuses a cell as the constructor does
    (lambda: program_center(ClassCenterFile(1, 2), 0, 256),
     "cell 0 must be an int in [0, 255], got 256"),
    (lambda: ClassCenterFile(1, 2).center(2),
     "class index must be an int in [0, 1], got 2"),
    (lambda: simulate_pipeline(PipelineModel(2, 2), ClassCenterFile(2, 2),
                               [(1, 2), (1, 2, 3)]),
     "schedule entry at cycle 1 must be a sequence of length 2, "
     "got (1, 2, 3)"),
    (lambda: estimate_frame_rate(170e6, 0, 630),
     "width must be an int >= 1, got 0"),
    (lambda: estimate_frame_rate(170e6, 10 ** 400, 630),
     "frame size 10000000000000000000... (401 long)x630 is too large"),
    # values reach the checks as given: not truncated, parsed or cast
    (lambda: ClassCenterFile.from_centers([[1.5, 2], [3, 4]]),
     "cell 0 must be an int in [0, 255], got 1.5"),
    (lambda: ClassCenterFile.from_centers([["7", 2], [3, 4]]),
     "cell 0 must be an int in [0, 255], got '7'"),
    (lambda: ClassCenterFile(1, 2, 8, [0, True]),
     "cell 1 must be an int in [0, 255], got True"),
    (lambda: program_center(ClassCenterFile(2, 2), 0, np.int64(5)),
     "cell 0 must be an int in [0, 255], got np.int64(5)"),
    (lambda: ClassCenterFile(1, 2, names=["a", 3]),
     "class 1 name must be a string"),
    # the shape rules are PipelineModel's, for both classes
    (lambda: ClassCenterFile(2, 2, True),
     "resolution_bits must be an int in [1, 32], got True"),
    (lambda: ClassCenterFile(2, 2, 8.0),
     "resolution_bits must be an int in [1, 32], got 8.0"),
    (lambda: ClassCenterFile(2.0, 2), "dims must be an int >= 1, got 2.0"),
    (lambda: PipelineModel(2.5, 4), "dims must be an int >= 1, got 2.5"),
    (lambda: PipelineModel(True, 2), "dims must be an int >= 1, got True"),
    (lambda: PipelineModel(2, 3.0),
     "num_classes must be an int >= 2, got 3.0"),
    (lambda: PipelineModel(2, 2, 33),
     "resolution_bits must be an int in [1, 32], got 33"),
    # containers and indices of the wrong type
    (lambda: ClassCenterFile(1, 2, 8, 5), "cells must be a list, not int"),
    (lambda: ClassCenterFile(1, 2, names=5), "names must be a list, not int"),
    (lambda: ClassCenterFile.from_centers([1, 2]),
     "center 0 must be a list or tuple, not int"),
    (lambda: program_center(ClassCenterFile(1, 2), 1.0, 5),
     "address must be an int in [0, 1], got 1.0"),
    (lambda: ClassCenterFile(1, 2).center(1.5),
     "class index must be an int in [0, 1], got 1.5"),
    (lambda: ClassCenterFile.from_centers(5),
     "centers must be a list or tuple, not int"),
    (lambda: classify(ClassCenterFile(1, 2), 5),
     "feature vector must be a sequence of length 1, got 5"),
    (lambda: classify(default_file(), (1, 2, 3)),
     "feature vector must be a sequence of length 2, got (1, 2, 3)"),
    (lambda: simulate_pipeline(PipelineModel(1, 2), ClassCenterFile(1, 2),
                               [5]),
     "schedule entry at cycle 0 must be a sequence of length 1, got 5"),
] + [row[1:] for row in INT_ROWS + REAL_ROWS],
   ids=["zero_dims", "cell_above_range", "names_length",
        "names_length_counts", "ragged_centers", "program_above_range",
        "class_past_end", "schedule_entry_length", "zero_width",
        "frame_past_float", "float_cell", "text_cell", "bool_cell",
        "program_numpy_cell", "int_name", "bool_bits", "float_bits",
        "float_dims", "fractional_model_dims", "bool_model_dims",
        "float_model_classes", "model_bits_above_32", "int_cells",
        "int_names", "int_center", "float_address", "float_class_index",
        "int_centers", "int_feature_vector", "long_feature_vector",
        "int_schedule_entry"] + [row[0] for row in INT_ROWS + REAL_ROWS])
def test_error_message(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


class TestManhattanDistance:
    # the L1 distance lives inside classify; these read it back through
    # the label, with the center it must win against listed first

    def test_identity(self):
        # distance 0 to itself beats a center at distance 1 despite the
        # tie-break towards the lower index
        f = ClassCenterFile.from_centers([(43, 17), (42, 17)])
        assert classify(f, (42, 17)) == 1

    def test_maximum_fits_in_guard_bits(self):
        # (0, 0) is 510 from (255, 255) and 509 from (255, 254)
        f = ClassCenterFile.from_centers([(255, 255), (255, 254)])
        model = PipelineModel(f.dims, f.num_classes)
        assert 510 < 2 ** model.accumulator_bits == 2 ** 10
        assert classify(f, (0, 0)) == 1
        assert simulate_pipeline(model, f, [(0, 0)])[0][1] == 1


class TestClassify:
    def test_exact_center_hit(self):
        assert classify(default_file(), (88, 151)) == 1

    def test_nearest_of_four(self):
        # distances to the default centers: 69, 31, 29, 19
        assert classify(default_file(), (100, 170)) == 3

    def test_tie_breaks_to_lowest_index(self):
        f = ClassCenterFile.from_centers([(10, 10), (12, 10)])
        assert classify(f, (11, 10)) == 0

    def test_length_mismatch(self):
        for x in [(1,), (1, 2, 3)]:
            with pytest.raises(ValueError):
                classify(default_file(), x)

    @given(center_files(), st.data())
    @settings(max_examples=200)
    def test_matches_exhaustive_oracle(self, f, data):
        # the cycle model accumulates every class distance one dimension
        # at a time and reduces them with a pairwise tree
        x = data.draw(st.lists(st.integers(0, 255), min_size=f.dims,
                               max_size=f.dims))
        model = PipelineModel(f.dims, f.num_classes)
        [(_, label)] = simulate_pipeline(model, f, [x])
        assert classify(f, x) == label

    @given(center_files(), st.data())
    @settings(max_examples=100)
    def test_translation_invariance(self, f, data):
        x = data.draw(st.lists(st.integers(0, 255), min_size=f.dims,
                               max_size=f.dims))
        headroom = 255 - max(max(f.cells), max(x))
        c = data.draw(st.integers(0, headroom))
        shifted = ClassCenterFile(f.dims, f.num_classes, 8,
                                  [v + c for v in f.cells])
        assert classify(shifted, [v + c for v in x]) == classify(f, x)

    @given(center_files(), st.data())
    @settings(max_examples=100)
    def test_class_permutation_equivariance(self, f, data):
        perm = data.draw(st.permutations(range(f.num_classes)))
        # perm[j] is the new position of old class j
        cells = [0] * len(f.cells)
        for j in range(f.num_classes):
            cells[perm[j] * f.dims:(perm[j] + 1) * f.dims] = f.center(j)
        permuted = ClassCenterFile(f.dims, f.num_classes, 8, cells)
        x = data.draw(st.lists(st.integers(0, 255), min_size=f.dims,
                               max_size=f.dims))
        label = classify(f, x)
        dists = [sum(abs(a - b) for a, b in zip(x, center))
                 for center in f.centers()]
        if dists.count(dists[label]) == 1:  # ties resolve by index, not class
            assert classify(permuted, x) == perm[label]

    @given(center_files(), st.data())
    @settings(max_examples=100)
    def test_accumulator_overflow_safety(self, f, data):
        x = data.draw(st.lists(st.integers(0, 255), min_size=f.dims,
                               max_size=f.dims))
        model = PipelineModel(f.dims, f.num_classes)
        # the largest distance, 255 per dimension (510 < 2**10 at D=2)
        assert 255 * f.dims < 2 ** model.accumulator_bits
        for center in f.centers():
            distance = sum(abs(a - b) for a, b in zip(x, center))
            assert distance < 2 ** model.accumulator_bits


class TestClassifyImage:
    def test_constant_image_at_center(self):
        data = np.empty((3, 4, 2), dtype=np.uint8)
        data[:, :] = (116, 157)
        out = classify_image(default_file(), ImageCbCr(4, 3, data))
        assert np.all(out.data == 2)

    def test_single_pixel(self):
        data = np.array([[[88, 151]]], dtype=np.uint8)
        out = classify_image(default_file(), ImageCbCr(1, 1, data))
        assert out.data[0, 0] == 1

    def test_matches_per_pixel_oracle(self):
        rng = np.random.default_rng(3)
        data = rng.integers(0, 256, (16, 16, 2), dtype=np.uint8)
        f = default_file()
        out = classify_image(f, ImageCbCr(16, 16, data))
        for y in range(16):
            for x in range(16):
                expected = classify(f, data[y, x].tolist())
                assert out.data[y, x] == expected

    @pytest.mark.parametrize("f", [
        default_file(),
        # equidistant along whole lines and diamonds of the input plane
        ClassCenterFile.from_centers([(10, 10), (12, 10), (11, 9), (11, 11)]),
        ClassCenterFile.from_centers([(0, 0), (255, 255), (0, 255), (255, 0)]),
        # a duplicated center never wins under its higher index
        ClassCenterFile.from_centers([(60, 200), (128, 128), (60, 200)]),
        # 9-bit centers may lie outside the 8-bit chroma range
        ClassCenterFile.from_centers([(300, 100), (127, 128), (511, 511)],
                                     resolution_bits=9),
        ClassCenterFile.from_centers([(40000, 3), (200, 30000), (9, 250)],
                                     resolution_bits=16),
    ], ids=["default", "tie_lines", "tie_corners", "duplicate", "9bit",
            "16bit"])
    def test_exhaustive_against_scalar_classify(self, f):
        cb, cr = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
        data = np.stack([cb, cr], axis=-1).astype(np.uint8)
        out = classify_image(f, ImageCbCr(256, 256, data))
        expected = [[classify(f, (x, y)) for y in range(256)]
                    for x in range(256)]
        assert out.data.tolist() == expected

    def test_wrong_dimension_count(self):
        f = ClassCenterFile(3, 2)
        with pytest.raises(ValueError):
            classify_image(f, ImageCbCr(1, 1, np.zeros((1, 1, 2), np.uint8)))

    def test_reflects_a_programmed_center(self):
        # the table is built once per register contents, so a write to
        # the register file must reach the next classification
        f = default_file()
        pixel = ImageCbCr(1, 1, np.array([[[10, 240]]], dtype=np.uint8))
        assert classify_image(f, pixel).data[0, 0] == 3
        program_center(f, 0, 10)
        program_center(f, 1, 240)
        assert classify_image(f, pixel).data[0, 0] == 0

    def test_table_is_read_only(self):
        table = mdc._nearest_center_table(tuple(default_file().cells))
        with pytest.raises(ValueError):
            table[0, 0] = 1


class TestPipelineModel:
    @pytest.mark.parametrize("dims,classes,latency", [
        (2, 4, 8), (1, 2, 4), (3, 5, 12),
    ])
    def test_latency_formula(self, dims, classes, latency):
        assert PipelineModel(dims, classes).latency == latency

    def test_accumulator_width(self):
        assert PipelineModel(1, 2).accumulator_bits == 10
        assert PipelineModel(4, 2).accumulator_bits == 10
        assert PipelineModel(8, 2).accumulator_bits == 11

    @pytest.mark.parametrize("dims,classes", [(2, 0), (2, 1), (0, 4), (-1, 4)])
    def test_invalid_shape_rejected(self, dims, classes):
        with pytest.raises(ValueError):
            PipelineModel(dims, classes)


class TestSimulatePipeline:
    @pytest.mark.parametrize("dims,classes", [(2, 4), (1, 2), (3, 5)])
    def test_delay_equals_formula(self, dims, classes):
        rng = np.random.default_rng(dims * 10 + classes)
        f = ClassCenterFile(dims, classes, 8,
                            rng.integers(0, 256, dims * classes).tolist())
        model = PipelineModel(dims, classes)
        schedule = rng.integers(0, 256, (20, dims)).tolist()
        out = simulate_pipeline(model, f, schedule)
        for t, (cycle, label) in enumerate(out):
            assert cycle == t + model.latency
            assert label == classify(f, schedule[t])

    def test_all_shapes_agree_with_classify(self):
        rng = np.random.default_rng(0)
        for dims in range(1, 5):
            for classes in range(2, 9):
                f = ClassCenterFile(dims, classes, 8,
                                    rng.integers(0, 256, dims * classes).tolist())
                model = PipelineModel(dims, classes)
                schedule = rng.integers(0, 256, (10, dims)).tolist()
                out = simulate_pipeline(model, f, schedule)
                assert [lab for _, lab in out] == [
                    classify(f, x) for x in schedule]

    def test_mismatched_model_rejected(self):
        with pytest.raises(ValueError):
            simulate_pipeline(PipelineModel(2, 4), ClassCenterFile(2, 3), [])


class TestFrameRate:
    def test_reference_configuration(self):
        assert estimate_frame_rate(170e6, 1000, 630) == pytest.approx(269.84, abs=0.01)

    def test_slow_clock(self):
        assert estimate_frame_rate(50e6, 1000, 630) == pytest.approx(79.37, abs=0.01)

    def test_degenerate(self):
        assert estimate_frame_rate(1, 1, 1) == 1.0


class TestCenterFileFormat:
    def test_json_round_trip(self):
        f = default_file()
        g = centers_from_json(centers_to_json(f))
        assert g.cells == f.cells
        assert g.names == f.names
        assert g.resolution_bits == f.resolution_bits

    @given(center_files(), st.data())
    def test_every_written_file_reads_back(self, f, data):
        names = data.draw(st.none() | st.lists(
            st.text(), min_size=f.num_classes, max_size=f.num_classes))
        f = ClassCenterFile(f.dims, f.num_classes, 8, f.cells, names)
        g = centers_from_json(centers_to_json(f))
        assert ((g.dims, g.num_classes, g.resolution_bits, g.cells)
                == (f.dims, f.num_classes, f.resolution_bits, f.cells))
        assert g.names == (f.names
                           or [f"class{j}" for j in range(f.num_classes)])

    @given(st.integers(1, 3), st.integers(2, 4), st.data())
    @settings(max_examples=300)
    def test_a_built_file_is_refused_or_reads_back(self, dims, classes, data):
        # built from loosely typed values, a file is refused as it is built
        # or programmed, never when it is written or read back
        odd = (st.floats() | st.booleans() | st.text(max_size=3)
               | st.integers(0, 255).map(np.int64) | st.none())
        # each draw leans to a valid value, so both outcomes are common
        ints = st.integers(0, 255) | st.integers(-2, 300)
        n = dims * classes
        cells = data.draw(st.lists(ints, min_size=n, max_size=n))
        for i, v in data.draw(st.dictionaries(st.integers(0, n - 1), odd,
                                              max_size=2)).items():
            cells[i] = v
        names = data.draw(st.none() | st.lists(
            st.text(max_size=3), min_size=classes, max_size=classes)
            | st.lists(st.text(max_size=3) | st.integers(), min_size=classes,
                       max_size=classes))
        bits = data.draw(st.integers(8, 32) | st.integers(0, 40)
                         | st.booleans() | st.floats())
        writes = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                              ints | odd), max_size=3))
        try:
            f = ClassCenterFile(dims, classes, bits, cells, names)
            for addr, v in writes:
                program_center(f, addr, v)
        except ValueError:
            return
        g = centers_from_json(centers_to_json(f))
        assert ((g.dims, g.num_classes, g.resolution_bits, g.cells)
                == (f.dims, f.num_classes, f.resolution_bits, f.cells))
        assert g.names == (f.names
                           or [f"class{j}" for j in range(f.num_classes)])

    def test_class_order_defines_labels(self):
        text = centers_to_json(default_file())
        g = centers_from_json(text)
        assert g.names[1] == "yellow"
        assert classify(g, (88, 151)) == 1

    @pytest.mark.parametrize("text", [
        '{"resolution_bits": 8}',
        '[]',
        '{"classes": []}',
        '{"classes": [{"center": [1, 2]}, {"name": "b", "center": [3, 4]}]}',
        '{"classes": [{"name": "a"}, {"name": "b", "center": [3, 4]}]}',
        '{"classes": ["a", "b"]}',
        '{"classes": [{"name": "a", "center": [1, "2"]},'
        ' {"name": "b", "center": [3, 4]}]}',
        '{"classes": [{"name": "a", "center": [1, 2]},'
        ' {"name": "b", "center": [3]}]}',
        '{"resolution_bits": 100000000000, "classes": [{"name": "a",'
        ' "center": [1, 2]}, {"name": "b", "center": [3, 4]}]}',
        '{"resolution_bits": "8", "classes": [{"name": "a",'
        ' "center": [1, 2]}, {"name": "b", "center": [3, 4]}]}',
        'not json',
        '{"classes": [{"name": null, "center": [1, 2]},'
        ' {"name": "b", "center": [3, 4]}]}',
        '{"classes": [{"name": "a", "center": [1, 2]},'
        ' {"name": [1], "center": [3, 4]}]}',
    ], ids=["no_classes", "not_an_object", "empty_classes", "no_name",
            "no_center", "class_not_object", "non_integer_cell",
            "ragged_dims", "huge_resolution", "string_resolution",
            "not_json", "null_name", "list_name"])
    def test_malformed_raises_value_error(self, text):
        with pytest.raises(ValueError):
            centers_from_json(text)

    @given(json_text())
    @example("[" * 100_000 + "]" * 100_000)
    @settings(max_examples=300)
    def test_arbitrary_json_raises_only_value_error(self, text):
        try:
            centers_from_json(text)
        except ValueError:
            pass
