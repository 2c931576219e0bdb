#!/usr/bin/env python3
"""The mutant catalogue: each entry is one small fault put into the code,
and the tests that must fail when it is there.

For each mutant the script copies the repository to a temporary
directory, replaces the entry's old text (which must occur exactly once
in its file) with the new text, and runs only the entry's tests with
`pytest -x -q -p no:cacheprovider` and a fixed Hypothesis seed. A mutant
is caught when a test fails and survives when every test passes. The
equivalent mutants change nothing a test can observe; they run too, and
are reported with the reason they are kept.

    python3 scripts/mutants.py

Prints one line per mutant and then the totals and the run time. Exits 0
when every mutant not listed as equivalent is caught, else 1. Needs only
the standard library and pytest; `tests/test_scripts.py` checks that each
old text still occurs exactly once, without running any mutant.
"""

import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple  # pytest ids, one of which must fail
    equivalent: str = ""  # why no test can catch it; empty for a fault


T_FILTERS = "tests/test_filters.py::"
T_MDC = "tests/test_mdc.py::"
T_IMAGE = "tests/test_image.py::"
T_CCL = "tests/test_ccl.py::TestFloodFillEquivalence::"
T_LINKS = "tests/test_ccl.py::TestRunLinks::"
T_DETECT = "tests/test_detector.py::TestDetect::"
T_PIPELINE = "tests/test_pipeline.py::"
T_TRAINER = "tests/test_trainer.py::TestAgainstLoopReference::"

MUTANTS = [
    # the production stages
    Mutant("median threshold 5 -> 6", "src/signpipe/filters.py",
           "(data <= k).view(np.uint8), 1) < 5",
           "(data <= k).view(np.uint8), 1) < 6",
           (T_FILTERS + "TestMedian::test_median_of_1_to_9",
            T_FILTERS + "TestMedian::test_matches_stream_reference")),
    Mutant("Gaussian rounding +8 -> +7", "src/signpipe/filters.py",
           "acc += GAUSSIAN_DIVISOR // 2",
           "acc += GAUSSIAN_DIVISOR // 2 - 1",
           (T_FILTERS + "TestGaussian::test_matches_stream_reference",)),
    Mutant("window sum drops the top edge row", "src/signpipe/filters.py",
           "    v[0] += x[0]\n", "",
           (T_FILTERS + "TestGaussian::test_matches_stream_reference",
            T_FILTERS + "TestMedian::test_matches_stream_reference")),
    Mutant("strip halo counts one filter", "src/signpipe/pipeline.py",
           "config.gaussian + config.median",
           "max(config.gaussian, config.median)",
           (T_PIPELINE + "test_strips_equal_the_whole_frame",
            T_PIPELINE + "test_strips_equal_the_whole_frame_at_the_paper_size")),
    Mutant("strip keeps its first rows", "src/signpipe/pipeline.py",
           "value.data[a - lo:a - lo + rows]", "value.data[:rows]",
           (T_PIPELINE + "test_strips_equal_the_whole_frame",)),
    Mutant("render_labels without widening", "src/signpipe/pipeline.py",
           "labels.data.astype(np.int32) * 255", "labels.data * 255",
           (T_PIPELINE
            + "test_render_labels_reads_class_and_label_images_alike",
            "tests/test_cli.py::test_detect_reports_one_sign")),
    Mutant("classifier table ties < -> <=", "src/signpipe/mdc.py",
           "where=d < best_d", "where=d <= best_d",
           (T_MDC + "TestClassifyImage::test_exhaustive_against_scalar_classify",)),
    Mutant("chroma rounding constant - 1", "src/signpipe/image.py",
           "kb * d + 128_500_000", "kb * d + 128_499_999",
           (T_IMAGE + "TestRgbToCbcr::test_exhaustive_against_float_formula",)),
    Mutant("window sum keeps the row wrap", "src/signpipe/filters.py",
           "    out[1:, 0] -= v[:-1, -1]\n", "",
           (T_FILTERS + "test_window_sum_matches_the_padded_sum",
            T_FILTERS + "TestGaussian::test_matches_stream_reference")),
    Mutant("conversion pairs at byte offset 1", "src/signpipe/image.py",
           '"<u2", data, 0, (3 * w, 3))', '"<u2", data, 1, (3 * w, 3))',
           (T_IMAGE + "TestRgbToCbcr::test_known_pixels",
            T_IMAGE + "TestRgbToCbcr::test_exhaustive_against_float_formula")),
    Mutant("labeler upper runs one short", "src/signpipe/ccl.py",
           "counts = up1 - up0", "counts = up1 - 1 - up0",
           (T_LINKS + "test_matches_flood_fill", T_CCL + "test_matches_oracle")),
    Mutant("labeler links runs of any class", "src/signpipe/ccl.py",
           "    upper, lower = upper[same], lower[same]\n", "",
           (T_LINKS + "test_matches_flood_fill", T_CCL + "test_matches_oracle")),
    # a run left one jump short of its root keeps a provisional id
    Mutant("labeler one pointer jump per round", "src/signpipe/ccl.py",
           "            jumped = root[root]\n"
           "            if np.array_equal(jumped, root):\n"
           "                break\n"
           "            root = jumped\n",
           "            root = root[root]\n"
           "            break\n",
           (T_CCL + "test_matches_oracle",)),
    Mutant("label ids from 0", "src/signpipe/ccl.py",
           "range(1, firsts.size + 1), cls", "range(firsts.size), cls",
           (T_CCL + "test_components_are_single_class",
            T_CCL + "test_matches_oracle")),
    Mutant("detect returns copies", "src/signpipe/detector.py",
           "out.append(comp)", "out.append(type(comp)(**vars(comp)))",
           (T_DETECT + "test_output_subset_in_order",
            T_PIPELINE + "test_run_pipeline_matches_the_chain_written_out")),
    Mutant("area bound <= -> <", "src/signpipe/detector.py",
           "comp.area <= rule.area_min", "comp.area < rule.area_min",
           (T_DETECT + "test_rejects_area_at_boundary",)),
    Mutant("ratio lower bound < -> <=", "src/signpipe/detector.py",
           "lo.numerator * h < lo.denominator * w",
           "lo.numerator * h <= lo.denominator * w",
           (T_DETECT + "test_ratio_bounds_strict",
            T_DETECT + "test_integer_ratio_test_is_the_fraction_filter")),
    Mutant("P3 block lookahead 4 -> 3", "src/signpipe/image.py",
           "raw[pos:pos + _P3_BLOCK + 4]", "raw[pos:pos + _P3_BLOCK + 3]",
           # a 3-digit token at a cut then sends the block to the scan
           (T_IMAGE + "TestP3Reader::test_peak_memory_per_payload_byte",)),
    # the trainer's steps and merge
    Mutant("trainer mean over 256 levels", "src/signpipe/trainer.py",
           "sums[:, 1:] / np.maximum(n, 1) / 255.0",
           "sums[:, 1:] / np.maximum(n, 1) / 256.0",
           (T_TRAINER + "test_converged_points_bit_identical",)),
    Mutant("trainer run ends stop one level short", "src/signpipe/trainer.py",
           "while (move := d2(out) <= bw2).any():",
           "while (move := d2(out) < bw2).any():",
           (T_TRAINER + "test_runs_hold_the_cells_within_the_bandwidth",)),
    Mutant("trainer merge unweighted", "src/signpipe/trainer.py",
           "modes[k] = ((m0 * s + y0) / (s + 1), (m1 * s + y1) / (s + 1))",
           "modes[k] = ((m0 + y0) / 2, (m1 + y1) / 2)",
           (T_TRAINER + "test_same_modes_and_support",)),
    Mutant("merge radius test <= -> <", "src/signpipe/trainer.py",
           "math.hypot(y0 - m0, y1 - m1) <= merge_radius",
           "math.hypot(y0 - m0, y1 - m1) < merge_radius",
           (T_TRAINER + "test_merge_at_the_radius",)),
    # the references
    Mutant("flood fill ids shifted by one", "src/signpipe/oracles.py",
           "ComponentFeatures(next_id, c,", "ComponentFeatures(next_id + 1, c,",
           (T_CCL + "test_matches_oracle",)),
    Mutant("dot-product chroma rounding constant - 1",
           "src/signpipe/oracles.py",
           "v += 128_500_000", "v += 128_499_999",
           (T_PIPELINE + "test_verify_frame_agrees_on_random_small_frames",)),
    # a float mean can end an ulp off the exact one: on bandwidth_tie it
    # takes in the sample at the radius
    Mutant("reference takes the float mean again", "src/signpipe/oracles.py",
           "new = inside.sum(axis=0) / len(inside) / 255.0 if",
           "new = pts[d2 <= config.bandwidth ** 2].mean(axis=0) if",
           (T_TRAINER + "test_converged_points_bit_identical",)),
    Mutant("stream median takes the 4th value", "src/signpipe/oracles.py",
           "return sorted(cells)[4]", "return sorted(cells)[3]",
           (T_FILTERS + "TestMedian::test_matches_stream_reference",)),
    Mutant("line buffer skips the row-end column", "src/signpipe/filters.py",
           "state.shift(*state.window[2::3])",
           "state.shift(*state.window[1::3])",
           (T_FILTERS + "TestStreamWindow::test_matches_random_access_gather",)),
    Mutant("scalar classify ties to the last minimum", "src/signpipe/mdc.py",
           "return dists.index(min(dists))",
           "return len(dists) - 1 - dists[::-1].index(min(dists))",
           (T_MDC + "TestClassify::test_tie_breaks_to_lowest_index",)),
    # the cycle model
    Mutant("cycle model drops the absolute stage", "src/signpipe/mdc.py",
           "return x, candidates, [abs(e) for e in diffs]",
           "return x, candidates, [e for e in diffs]",
           (T_MDC + "TestSimulatePipeline::test_all_shapes_agree_with_classify",)),
    Mutant("cycle model emits a cycle late", "src/signpipe/mdc.py",
           "outputs.append((cycle, label))", "outputs.append((cycle + 1, label))",
           (T_MDC + "TestSimulatePipeline::test_delay_equals_formula",)),
    # `center[d] - x[d]` would be equivalent: the absolute stage follows
    Mutant("cycle model subtracts the first component", "src/signpipe/mdc.py",
           "[x[d] - center[d] for center in centers]",
           "[x[d] - center[0] for center in centers]",
           (T_MDC + "TestSimulatePipeline::test_all_shapes_agree_with_classify",)),
    Mutant("cycle model accumulates no sum", "src/signpipe/mdc.py",
           "[(s + e, j) for (s, j), e in", "[(e, j) for (s, j), e in",
           (T_MDC + "TestSimulatePipeline::test_all_shapes_agree_with_classify",)),
    Mutant("cycle model selects the larger", "src/signpipe/mdc.py",
           "min(candidates[i:i + 2])", "max(candidates[i:i + 2])",
           (T_MDC + "TestSimulatePipeline::test_all_shapes_agree_with_classify",)),
    Mutant("cycle model ignores the file's bits", "src/signpipe/mdc.py",
           "!= (file.dims, file.num_classes, file.resolution_bits)",
           "!= (file.dims, file.num_classes, model.resolution_bits)",
           (T_MDC + "test_error_message",)),
    Mutant("selection levels ceil(log2 (C + 1))", "src/signpipe/mdc.py",
           "(self.num_classes - 1).bit_length()",
           "self.num_classes.bit_length()",
           (T_MDC + "TestPipelineModel::test_latency_formula",)),
    # the refusal helpers
    Mutant("integer rule lo <= v -> lo < v", "src/signpipe/image.py",
           "type(v) is int and lo <= v", "type(v) is int and lo < v",
           # test_mdc and test_pipeline build centers with a 0 cell on import
           (T_DETECT + "test_ratio_window_monotonic",)),
    Mutant("real rule admits 0", "src/signpipe/image.py",
           "(x > 0 if op == \">\" else x >= 0)",
           "(x >= 0 if op == \">\" else x >= 0)",
           ("tests/test_trainer.py::TestMeanShift::test_config_validation",)),
    Mutant("filter switches admit ints", "src/signpipe/pipeline.py",
           "self.median, (bool, np.bool_)", "self.median, (bool, np.bool_, int)",
           (T_PIPELINE
            + "test_config_refuses_class_indices_outside_the_center_file",)),
    Mutant("class limit 256 -> 257", "src/signpipe/mdc.py",
           "if (classes := file.num_classes) > 256:",
           "if (classes := file.num_classes) > 257:",
           (T_PIPELINE
            + "test_config_refuses_class_indices_outside_the_center_file",)),
    Mutant("center file skips the shape rules", "src/signpipe/mdc.py",
           "        super().__post_init__()\n", "",
           (T_MDC + "test_error_message",)),
    # objects of another type
    Mutant("classify takes any centers", "src/signpipe/mdc.py",
           '    _kind("centers", file, ClassCenterFile, "a ClassCenterFile")\n'
           '    x = _vector(', "    x = _vector(",
           (T_MDC + "test_error_message",)),
    Mutant("write port takes any centers", "src/signpipe/mdc.py",
           '    _kind("centers", file, ClassCenterFile, "a ClassCenterFile")\n'
           '    _int_in("address"', '    _int_in("address"',
           (T_MDC + "test_error_message",)),
    Mutant("cycle model takes any model", "src/signpipe/mdc.py",
           '    _kind("model", model, PipelineModel, "a PipelineModel")\n', "",
           (T_MDC + "test_error_message",)),
    Mutant("cycle model takes any centers", "src/signpipe/mdc.py",
           '"a PipelineModel")\n'
           '    _kind("centers", file, ClassCenterFile, "a ClassCenterFile")',
           '"a PipelineModel")',
           (T_MDC + "test_error_message",)),
    Mutant("trainer takes any config", "src/signpipe/trainer.py",
           'config, MeanShiftConfig, "a MeanShiftConfig")',
           'config, object, "an object")',
           ("tests/test_trainer.py::TestMeanShift::test_config_validation",)),
    Mutant("chain takes any config", "src/signpipe/pipeline.py",
           '    _kind("config", config, PipelineConfig, "a PipelineConfig")\n',
           "",
           (T_PIPELINE
            + "test_config_refuses_class_indices_outside_the_center_file",)),
    Mutant("conversion takes any image", "src/signpipe/image.py",
           '    _kind("image", img, ImageRGB, "an ImageRGB")\n', "",
           (T_PIPELINE
            + "test_config_refuses_class_indices_outside_the_center_file",)),
    Mutant("median takes any image", "src/signpipe/filters.py",
           '    _kind("image", labels, (ImageClass, ImageGray),\n'
           '          "an ImageClass or ImageGray")\n', "",
           (T_PIPELINE
            + "test_config_refuses_class_indices_outside_the_center_file",)),
    Mutant("strips take any image", "src/signpipe/pipeline.py",
           '    _kind("image", rgb, ImageRGB, "an ImageRGB")\n', "",
           (T_PIPELINE
            + "test_config_refuses_class_indices_outside_the_center_file",)),
    Mutant("detect takes any rule", "src/signpipe/detector.py",
           '    _kind("rule", rule, DetectionRule, "a DetectionRule")\n', "",
           (T_DETECT + "test_rule_invariants",)),
    Mutant("detect admits a skipped target", "src/signpipe/cli.py",
           "if (target := config.rule.target_class) in config.skip_classes:",
           "if False:",
           ("tests/test_cli.py::test_bad_input_exits_with_one_line",)),
    Mutant("clock admitted past the float range in Hz",
           "src/signpipe/pipeline.py",
           "if mhz * 1e6 > sys.float_info.max:", "if False:",
           (T_PIPELINE
            + "test_config_refuses_class_indices_outside_the_center_file",
            "tests/test_cli.py::test_bad_input_exits_with_one_line")),
    # equivalent: no output changes, so no test can catch it
    Mutant("trainer stop test < -> <=", "src/signpipe/trainer.py",
           "last = shift < TOLERANCE", "last = shift <= TOLERANCE",
           (T_TRAINER + "test_converged_points_bit_identical",),
           equivalent="it differs only when a shift equals the tolerance "
           "exactly"),
]


def run(mutant):
    """(status, detail, seconds) of one mutant in a fresh copy."""
    began = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        path = copy / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: the old text occurs "
                             f"{text.count(mutant.old)} times in {mutant.file}")
        path.write_text(text.replace(mutant.old, mutant.new))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", "--hypothesis-seed=0", *mutant.tests],
            cwd=copy, capture_output=True, text=True)
    seconds = time.perf_counter() - began
    if proc.returncode == 0:
        return "survived", "", seconds
    failed = re.search(r"^FAILED (\S+)", proc.stdout, re.M)
    if proc.returncode == 1 and failed:
        return "caught", failed[1], seconds
    # collection errors, unknown test ids, a crash: not a verdict
    tail = (proc.stdout + proc.stderr).strip().splitlines()[-1:]
    return "error", f"exit {proc.returncode}: {' '.join(tail)}", seconds


def main():
    began = time.perf_counter()
    counts = {}
    for mutant in MUTANTS:
        status, detail, seconds = run(mutant)
        if mutant.equivalent and status == "survived":
            status, detail = "equivalent", mutant.equivalent
        elif mutant.equivalent and status == "caught":
            detail = f"listed as equivalent, yet {detail} failed"
        counts[status] = counts.get(status, 0) + 1
        print(f"{status:10} {mutant.name} ({seconds:.1f} s): {detail}",
              flush=True)
    total = ", ".join(f"{n} {status}" for status, n in counts.items())
    print(f"{len(MUTANTS)} mutants: {total}; "
          f"{time.perf_counter() - began:.0f} s")
    return 0 if set(counts) <= {"caught", "equivalent"} else 1


if __name__ == "__main__":
    sys.exit(main())
