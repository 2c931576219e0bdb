import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from signpipe import pipeline
from signpipe.cli import main
from signpipe.detector import annotate
from signpipe.image import load_pnm, rgb_to_cbcr, save_pnm
from signpipe.mdc import ClassCenterFile, centers_to_json
from signpipe.pipeline import PipelineConfig, run_pipeline
from signpipe.synthetic import background_frame, disc_frame
from signpipe.trainer import MeanShiftConfig, centers_to_file, mean_shift


@pytest.fixture
def frame_path(tmp_path):
    path = tmp_path / "frame.ppm"
    path.write_bytes(save_pnm(disc_frame()))
    return path


def test_detect_reports_one_sign(frame_path, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    annotated_path = tmp_path / "annotated.ppm"
    seg_path = tmp_path / "seg.ppm"
    rc = main(["detect", str(frame_path),
               "--out-report", str(report_path),
               "--out-annotated", str(annotated_path),
               "--out-seg", str(seg_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert set(report) == {"image", "width", "height", "classes",
                           "components", "detections", "latency_cycles",
                           "est_fps"}
    assert len(report["detections"]) == 1
    assert report["latency_cycles"] == 8  # 2 dims, 4 classes
    assert report["est_fps"] == pytest.approx(170e6 / (200 * 200))
    assert "detections: 1" in capsys.readouterr().out
    # artifacts decode as valid PPMs of the input size
    assert load_pnm(annotated_path.read_bytes()).width == 200
    # class i of the 4 is gray level 255 * i // 3, as many pixels as the
    # report counts; an unwidened uint8 product wrote 84 for class 2
    seg = load_pnm(seg_path.read_bytes()).data
    assert seg.shape == (200, 200, 3)
    assert (seg == seg[:, :, :1]).all()
    levels, counts = np.unique(seg[:, :, 0], return_counts=True)
    assert levels.tolist() == [0, 85, 170]
    assert counts.tolist() == [c["pixels"] for c in report["classes"][:3]]
    assert report["classes"][3]["pixels"] == 0


def test_cli_matches_library_composition(frame_path, tmp_path):
    annotated_path = tmp_path / "annotated.ppm"
    main(["detect", str(frame_path), "--out-annotated", str(annotated_path)])
    rgb = load_pnm(frame_path.read_bytes())
    report, _ = run_pipeline(PipelineConfig(), rgb)
    expected = save_pnm(annotate(rgb, report.detections))
    assert annotated_path.read_bytes() == expected


def test_report_deterministic(frame_path, tmp_path):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    main(["detect", str(frame_path), "--out-report", str(p1)])
    main(["detect", str(frame_path), "--out-report", str(p2)])
    assert p1.read_bytes() == p2.read_bytes()


def test_detect_prints_class_counts_then_components_then_detections(
        frame_path, capsys):
    assert main(["detect", str(frame_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    report, _ = run_pipeline(PipelineConfig(),
                             load_pnm(frame_path.read_bytes()))
    assert out[:6] == [f"class {i}: {n} pixels"
                       for i, n in enumerate(report.class_pixels)] + [
        f"components: {len(report.components)}",
        f"detections: {len(report.detections)}"]
    assert len(out) == 6 + len(report.detections)
    assert all(line.startswith("  component ") for line in out[6:])


def test_detection_flags_respected(frame_path, tmp_path):
    report_path = tmp_path / "report.json"
    main(["detect", str(frame_path), "--area-min", "5000",
          "--out-report", str(report_path)])
    assert json.loads(report_path.read_text())["detections"] == []


def test_filters_off_on_clean_frame_same_detections(frame_path, tmp_path):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    main(["detect", str(frame_path), "--out-report", str(p1)])
    main(["detect", str(frame_path), "--no-gaussian", "--no-median",
          "--out-report", str(p2)])
    d1 = json.loads(p1.read_text())["detections"]
    d2 = json.loads(p2.read_text())["detections"]
    # smoothing moves the disc's class boundary by at most one pixel, so
    # the same single sign is found either way
    assert len(d1) == len(d2) == 1
    assert max(abs(a - b) for a, b in zip(d1[0]["bbox"], d2[0]["bbox"])) <= 1


def test_ablate_noisy_frame(tmp_path, capsys):
    path = tmp_path / "noisy.ppm"
    path.write_bytes(save_pnm(disc_frame(sigma=6.0, seed=42)))
    assert main(["ablate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "reduction:" in out


def test_ablate_background_is_zero(tmp_path, capsys):
    path = tmp_path / "bg.ppm"
    path.write_bytes(save_pnm(background_frame(64, 64)))
    main(["ablate", str(path)])
    assert "reduction: 0.0%" in capsys.readouterr().out


def test_ablate_uses_filter_toggles(tmp_path, capsys):
    path = tmp_path / "noisy.ppm"
    path.write_bytes(save_pnm(disc_frame(sigma=6.0, seed=42)))

    def ablate(*flags):
        assert main(["ablate", str(path), *flags]) == 0
        return capsys.readouterr().out

    assert "components with filters:    2\n" in ablate()
    assert "components with filters:    5\n" in ablate("--no-gaussian")
    assert "reduction: 0.0%" in ablate("--no-gaussian", "--no-median")


def test_latency_subcommand(capsys):
    assert main(["latency", "--dims", "2", "--classes", "4"]) == 0
    out = capsys.readouterr().out
    assert "latency: 8 cycles" in out
    assert "269.84" in out
    # ceil(log2 C) in integers: a float log2 gave 52 here
    assert main(["latency", "--dims", "1", "--classes",
                 "562949953421313"]) == 0
    assert ("latency: 53 cycles (3*1 + ceil(log2 562949953421313))"
            in capsys.readouterr().out)


def test_verify_subcommand(tmp_path, capsys):
    path = tmp_path / "small.ppm"
    path.write_bytes(save_pnm(disc_frame(48, 48, 10, 4)))
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    for stage in ("conversion", "gaussian", "classify", "median", "labeling"):
        assert f"{stage}: ok" in out


def _flip_first(img):
    data = img.data.copy()
    data.reshape(-1)[0] ^= 1
    return type(img)(data)


def _drop_last_component(real):
    def label(seg, skip):
        labels, feats = real(seg, skip)
        return labels, feats[:-1]
    return label


# each stage's production function in `pipeline`, and a wrong version of it
WRONG_STAGES = {
    "conversion": ("rgb_to_cbcr",
                   lambda real: lambda img: _flip_first(real(img))),
    "gaussian": ("gaussian3x3",
                 lambda real: lambda img: _flip_first(real(img))),
    "classify": ("classify_image", lambda real: lambda centers, chroma:
                 _flip_first(real(centers, chroma))),
    "median": ("median3x3", lambda real: lambda seg: _flip_first(real(seg))),
    "labeling": ("label_components", _drop_last_component),
}


# a filter's toggle, and the production functions before and after it
AROUND_FILTER = {"--no-gaussian": ("rgb_to_cbcr", "classify_image"),
                 "--no-median": ("classify_image", "label_components")}


def _recording(real, calls):
    """`real`, recording its arguments and output."""
    def record(*args):
        out = real(*args)
        calls.append((args, out))
        return out
    return record


@pytest.mark.parametrize("stage, toggle", [
    pytest.param(stage, toggle, id=stage + (toggle or ""))
    for toggle in (None, *AROUND_FILTER) for stage in WRONG_STAGES])
def test_verify_names_the_stage_at_fault(stage, toggle, tmp_path, capsys,
                                         monkeypatch):
    path = tmp_path / "small.ppm"
    path.write_bytes(save_pnm(disc_frame(48, 48, 10, 4)))
    name, wrong = WRONG_STAGES[stage]
    monkeypatch.setattr(pipeline, name, wrong(getattr(pipeline, name)))
    calls = {}
    for real, _ in WRONG_STAGES.values():
        monkeypatch.setattr(pipeline, real, _recording(
            getattr(pipeline, real), calls.setdefault(real, [])))
    assert main(["verify", str(path)] + ([toggle] if toggle else [])) == 1
    out = capsys.readouterr().out.splitlines()
    # a disabled filter is checked too, on the input it would have received
    for other in WRONG_STAGES:
        assert f"{other}: {'MISMATCH' if other == stage else 'ok'}" in out
    assert all(len(c) == 1 for c in calls.values())
    if toggle:
        # and its output is dropped: the next stage takes the one before's
        before, after = AROUND_FILTER[toggle]
        (args, _), = calls[after]
        assert any(a is calls[before][0][1] for a in args)


def test_color_labels_writes_the_palette_image(frame_path, tmp_path):
    seg_path = tmp_path / "seg.ppm"
    assert main(["detect", str(frame_path), "--out-seg", str(seg_path),
                 "--color-labels"]) == 0
    _, artifacts = run_pipeline(PipelineConfig(),
                                load_pnm(frame_path.read_bytes()))
    seg, rgb = artifacts.seg.data, load_pnm(seg_path.read_bytes()).data
    # background black, then the palette's yellow and red
    for c, color in enumerate([(0, 0, 0), (255, 214, 0), (220, 40, 40)]):
        assert (seg == c).any() and (rgb[seg == c] == color).all()
    assert seg.max() == 2


def test_train_subcommand(tmp_path, capsys):
    path = tmp_path / "frame.ppm"
    path.write_bytes(save_pnm(disc_frame(64, 64, 16, 6)))
    out_path = tmp_path / "centers.json"
    assert main(["train", str(path), "--bandwidth", "0.05",
                 "--out-centers", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert doc["resolution_bits"] == 8
    assert len(doc["classes"]) >= 2
    # the dominant mode is the background chroma
    assert doc["classes"][0]["center"] == [127, 128]
    # with no --names, class j is named class<j>
    assert ([c["name"] for c in doc["classes"]]
            == [f"class{j}" for j in range(len(doc["classes"]))])


def test_synth_defaults_are_the_library_defaults(tmp_path):
    path = tmp_path / "synth.ppm"
    assert main(["synth", str(path)]) == 0
    assert path.read_bytes() == save_pnm(disc_frame())


def test_train_defaults_are_the_library_defaults(tmp_path):
    # a noisy sign frame: three modes at the default bandwidth 0.05, two
    # at 0.1 and one at 0.4, so the default shows in the file
    rgb = disc_frame(64, 64, 16, 6, sigma=4)
    path = tmp_path / "frame.ppm"
    path.write_bytes(save_pnm(rgb))
    out_path = tmp_path / "centers.json"
    assert main(["train", str(path), "--out-centers", str(out_path)]) == 0
    result = mean_shift(rgb_to_cbcr(rgb).data.reshape(-1, 2), MeanShiftConfig())
    assert len(result.modes) == 3
    assert out_path.read_text() == centers_to_file(
        result, ["class0", "class1", "class2"])


def test_synth_train_detect_with_no_flags(tmp_path):
    frame, centers = tmp_path / "frame.ppm", tmp_path / "centers.json"
    assert main(["synth", str(frame)]) == 0
    assert main(["train", str(frame), "--out-centers", str(centers)]) == 0
    assert main(["detect", str(frame), "--centers", str(centers)]) == 0


def test_synth_subcommand(tmp_path):
    path = tmp_path / "synth.ppm"
    assert main(["synth", str(path), "--width", "80", "--height", "60"]) == 0
    img = load_pnm(path.read_bytes())
    assert (img.width, img.height) == (80, 60)


def test_missing_file_exits(tmp_path):
    with pytest.raises(SystemExit):
        main(["detect", str(tmp_path / "nope.ppm")])


# the rule flags and --clock-mhz: read only by the report, the annotated
# frame and the printed detections, so only detect takes them
REPORT_FLAG_REFUSALS = [
    ([sub, "{frame}", flag, value], f"unrecognized arguments: {flag} {value}")
    for sub in ("ablate", "verify")
    for flag, value in [("--area-min", "999999"), ("--ratio-min", "5"),
                        ("--ratio-max", "6"), ("--target-class", "2"),
                        ("--clock-mhz", "0.001")]]


@pytest.mark.parametrize("argv, fragment", [
    (["detect", "{frame}", "--ratio-min", "abc"],
     "ratio_min must be a finite decimal, got 'abc'"),
    (["detect", "{frame}", "--ratio-max", "nan"],
     "ratio_max must be a finite decimal, got 'nan'"),
    (["detect", "{frame}", "--ratio-max", "1e999999999"],
     "ratio_max must be a finite decimal"),
    (["detect", "{frame}", "--ratio-min", "5"],
     "need 0 < ratio_min < ratio_max"),
    (["detect", "{frame}", "--skip-class", "9"],
     "skip class must be an int in [0, 3], got 9"),
    (["detect", "{frame}", "--target-class", "9"],
     "target class must be an int in [0, 3], got 9"),
    (["detect", "{frame}", "--skip-class", "9", "--target-class", "9"],
     "skip class must be an int in [0, 3], got 9"),
    (["detect", "{frame}", "--target-class", "-1"],
     "target_class must be an int >= 0, got -1"),
    (["detect", "{frame}", "--centers", "{no_name}"],
     'class 0 needs a "name"'),
    (["detect", "{frame}", "--centers", "{tmp}/missing.json"],
     "No such file or directory"),
    (["detect", "{frame}", "--clock-mhz", "0"],
     "clock_mhz must be finite and > 0, got 0.0"),
    (["detect", "{frame}", "--clock-mhz", "inf",
      "--out-report", "{tmp}/r.json"],
     "clock_mhz must be finite and > 0, got inf"),
    # refused before the chain runs, by the flag's own name
    (["detect", "{frame}", "--clock-mhz", "1e303",
      "--out-report", "{tmp}/r.json"],
     "clock_mhz must be finite and > 0, got 1e+303; in Hz it must be "
     "finite too"),
    (["ablate", "{frame}", "--clock-mhz", "inf"],
     "unrecognized arguments: --clock-mhz"),
    (["detect", "{frame}", "--clock-mhz", "200", "--out-seg", "{tmp}/s.ppm"],
     "--clock-mhz needs --out-report"),
    (["detect", "{frame}", "--color-labels", "--out-report", "{tmp}/r.json"],
     "--color-labels needs --out-seg"),
    (["detect", "{frame}", "--centers", "{tmp}/four_bit.json"],
     "pipeline needs 8-bit centers, got 4-bit"),
    (["detect", "{frame}", "--centers", "{tmp}/many_classes.json"],
     "pipeline needs at most 256 classes, got 300"),
    (["detect", "{frame}", "--out-report", "{tmp}/no/such/dir/r.json"],
     "No such file or directory"),
    (["train", "{frame}", "--bandwidth", "0"],
     "bandwidth must be finite and > 0, got 0.0"),
    (["train", "{frame}", "--bandwidth", "nan"],
     "bandwidth must be finite and > 0, got nan"),
    (["train", "{frame}", "--bandwidth", "inf"],
     "bandwidth must be finite and > 0, got inf"),
    (["train", "{frame}", "--bandwidth", "1e308"],
     "bandwidth must be finite and > 0, got 1e+308; its square must be "
     "finite too"),
    (["train", "{frame}", "--bandwidth", "2"],
     "num_classes must be an int >= 2, got 1"),
    (["train", "{tmp}/three_modes.ppm", "--names", "a,b"],
     "names length must equal num_classes: 2 names for 3 classes"),
    (["latency", "--classes", "1"], "num_classes must be an int >= 2, got 1"),
    (["latency", "--clock-mhz", "nan"],
     "frequency must be finite and > 0, got nan"),
    (["latency", "--clock-mhz", "inf"],
     "frequency must be finite and > 0, got inf"),
    (["latency", "--width", "1" + "0" * 400],
     "argument --width: invalid int value: '10000000000000000000'... "
     "(401 long)"),
    (["synth", "{tmp}/s.ppm", "--width", "0"],
     "width must be an int in [1, 4096], got 0"),
    (["verify", "{frame}", "--out-report", "{tmp}/r.json"],
     "unrecognized arguments: --out-report"),
    (["ablate", "{frame}", "--out-seg", "{tmp}/s.ppm"],
     "unrecognized arguments: --out-seg"),
    (["detect", "{frame}", "--area-min", "abc"],
     "argument --area-min: invalid int value: 'abc'"),
    (["detect", "{frame}", "--no-such-flag"],
     "unrecognized arguments: --no-such-flag"),
    (["segment", "{frame}"], "invalid choice: 'segment'"),
    (["detect", "{tmp}/truncated.ppm"], "truncated payload"),
    (["detect", "{frame}", "--centers", "{tmp}/deep.json"],
     "center file is nested too deeply"),
    (["detect", "{frame}", "--centers", "{tmp}/long_value.json"],
     "cell 0 must be an int in [0, 255], got 10000000000000000000... "
     "(4000 long)"),
    (["detect", "{frame}", "--centers", "{tmp}/long_bits.json"],
     "resolution_bits must be an int in [1, 32], got "
     "'xxxxxxxxxxxxxxxxxxx... (100002 long)"),
    (["detect", "{tmp}/long_sides_p6.ppm"], "invalid width"),
    (["detect", "{tmp}/long_sides_p3.ppm"], "invalid width"),
    (["detect", "{frame}", "--centers", "{tmp}/huge_value.json"],
     "number 99999999999999999999... (5001 long) is too long"),
    (["detect", "{frame}", "--centers", "{tmp}/huge_bits.json"],
     "number 99999999999999999999... (5001 long) is too long"),
    (["latency", "--dims", "9" * 5000],
     "invalid int value: '99999999999999999999'... (5000 long)"),
    (["latency", "--dims", "9" * 4300],
     "argument --dims: invalid int value: '99999999999999999999'... "
     "(4300 long)"),
    (["synth", "{tmp}/s.ppm", "--radius", "-5"],
     "radius must be an int >= 0, got -5"),
    (["synth", "{tmp}/s.ppm", "--ring", "-100"],
     "ring must be an int >= 0, got -100"),
    (["synth", "{tmp}/s.ppm", "--sigma", "nan"],
     "sigma must be finite and >= 0, got nan"),
    (["synth", "{tmp}/s.ppm", "--sigma", "-3"],
     "sigma must be finite and >= 0, got -3.0"),
    (["synth", "{tmp}/s.ppm", "--width", "4097"],
     "width must be an int in [1, 4096], got 4097"),
    (["synth", "{tmp}/s.ppm", "--height", "4097"],
     "height must be an int in [1, 4096], got 4097"),
    (["synth", "{tmp}/s.ppm", "--seed", "-1"],
     "seed must be an int >= 0, got -1"),
] + REPORT_FLAG_REFUSALS,
   ids=["ratio_not_a_number", "ratio_nan", "ratio_huge_exponent",
        "ratio_min_above_max", "skip_class_range",
        "target_class_range", "both_class_flags", "negative_target",
        "center_without_name", "missing_center_file", "zero_clock",
        "infinite_clock", "clock_past_float_in_hz", "infinite_clock_ablate",
        "clock_without_report",
        "color_labels_without_seg", "four_bit_centers",
        "many_class_centers", "unwritable_output",
        "zero_bandwidth", "nan_bandwidth", "infinite_bandwidth",
        "huge_bandwidth",
        "single_mode", "names_count", "one_class", "nan_latency_clock",
        "infinite_latency_clock", "latency_frame_too_large", "zero_width",
        "verify_output_flag",
        "ablate_output_flag", "area_not_an_integer", "unknown_flag",
        "no_segment_subcommand",
        "truncated_frame", "deeply_nested_centers", "long_center_value",
        "long_resolution_bits", "long_sides_p6", "long_sides_p3",
        "huge_center_value", "huge_resolution_bits", "latency_dims_past_int",
        "latency_huge_dims",
        "negative_radius",
        "negative_ring", "nan_sigma", "negative_sigma", "width_above_bound",
        "height_above_bound", "negative_seed"]
    + [f"{a[0]}_{a[2][2:].replace('-', '_')}" for a, _ in REPORT_FLAG_REFUSALS])
def test_bad_input_exits_with_one_line(argv, fragment, frame_path, tmp_path):
    no_name = tmp_path / "no_name.json"
    no_name.write_text('{"classes": [{"center": [127, 128]},'
                       ' {"name": "yellow", "center": [88, 151]}]}')
    (tmp_path / "truncated.ppm").write_bytes(b"P3 2 1 255\n1 2 3 4 5")
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    for name, bits, first in [("long_value", 8, 10 ** 3999),
                              ("long_bits", "x" * 100_000, 1)]:
        (tmp_path / f"{name}.json").write_text(json.dumps({
            "resolution_bits": bits, "classes": [
                {"name": "a", "center": [first, 1]},
                {"name": "b", "center": [1, 2]}]}))
    # integers past the 4300 digits Python's int converts
    huge = "9" * 5001
    for name, bits, first in [("huge_value", "8", huge),
                              ("huge_bits", huge, "1")]:
        (tmp_path / f"{name}.json").write_text(
            f'{{"resolution_bits": {bits}, "classes": ['
            f'{{"name": "a", "center": [{first}, 1]}}, '
            f'{{"name": "b", "center": [1, 2]}}]}}')
    (tmp_path / "four_bit.json").write_text(centers_to_json(
        ClassCenterFile.from_centers([(8, 8), (5, 9), (7, 10)],
                                     resolution_bits=4)))
    (tmp_path / "many_classes.json").write_text(centers_to_json(
        ClassCenterFile.from_centers([(j % 256, j // 256)
                                      for j in range(300)])))
    # three modes at the default bandwidth
    (tmp_path / "three_modes.ppm").write_bytes(
        save_pnm(disc_frame(64, 64, 16, 6, sigma=4)))
    side = b"1" * 2201
    for magic in ("p6", "p3"):
        (tmp_path / f"long_sides_{magic}.ppm").write_bytes(
            magic.upper().encode() + b" " + side + b" " + side + b" 255\n")
    argv = [a.format(frame=frame_path, no_name=no_name, tmp=tmp_path)
            for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    # a string code is printed to stderr as one line, with exit status 1
    message = exc.value.code
    assert isinstance(message, str) and message.startswith("signpipe: ")
    assert "\n" not in message
    # the case's own message, not a library's leaking through
    assert fragment in message


def _python(*args, timeout=None):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"),
         os.environ.get("PYTHONPATH", "")]))
    # a deprecation fails out of process as pytest's filterwarnings
    # makes it fail in process
    return subprocess.run([sys.executable, "-W", "error::DeprecationWarning",
                           "-W", "error::PendingDeprecationWarning", *args],
                          capture_output=True, text=True, env=env,
                          timeout=timeout)


def _run_cli(*argv, timeout=None):
    return _python("-m", "signpipe.cli", *argv, timeout=timeout)


def test_runtime_imports_are_numpy_and_the_standard_library():
    # numpy is the only runtime dependency: the package and its CLI load
    # no other module beyond those the interpreter loaded at start
    proc = _python("-c", "import sys; before = set(sys.modules); "
                   "import signpipe, signpipe.cli; "
                   "print(*sorted(set(sys.modules) - before))")
    assert proc.returncode == 0, proc.stderr
    added = {m.split(".")[0] for m in proc.stdout.split()}
    assert "signpipe" in added
    assert added - sys.stdlib_module_names - {"numpy", "signpipe"} == set()


def test_runs_as_python_dash_m_signpipe():
    proc = _python("-m", "signpipe", "latency", "--dims", "2", "--classes", "4")
    assert proc.returncode == 0, proc.stderr
    assert "latency: 8 cycles" in proc.stdout


CONFIG_FLAGS = ["--centers", "--no-gaussian", "--no-median", "--skip-class"]
REPORT_FLAGS = ["--area-min", "--ratio-min", "--ratio-max", "--target-class",
                "--clock-mhz", "--out-seg", "--out-annotated", "--out-report",
                "--color-labels"]
FLAGS = {
    "detect": CONFIG_FLAGS + REPORT_FLAGS,
    "train": ["--bandwidth", "--seed-stride", "--names", "--out-centers"],
    "ablate": CONFIG_FLAGS,
    "latency": ["--dims", "--classes", "--clock-mhz", "--width", "--height"],
    "verify": CONFIG_FLAGS,
    "synth": ["--width", "--height", "--radius", "--ring", "--seed", "--sigma"],
}


def test_each_subcommand_takes_only_the_flags_it_reads(capsys):
    # each option's help line starts with its flag; `-h, --help` does not
    taken = {}
    for sub in FLAGS:
        with pytest.raises(SystemExit) as exc:
            main([sub, "-h"])
        assert exc.value.code == 0
        taken[sub] = re.findall(r"^  (--[\w-]+)", capsys.readouterr().out,
                                re.MULTILINE)
    assert taken == FLAGS
    assert sum(map(len, taken.values())) == 36


# the flags that take no number
TEXT_FLAGS = {"--centers", "--no-gaussian", "--no-median", "--out-seg",
              "--out-annotated", "--out-report", "--color-labels", "--names",
              "--out-centers"}


@pytest.mark.parametrize("sub, flag", [
    (sub, flag) for sub, flags in FLAGS.items() for flag in flags
    if flag not in TEXT_FLAGS])
def test_long_bad_number_is_quoted_short(sub, flag, tmp_path):
    path = [] if sub == "latency" else [str(tmp_path / "frame.ppm")]
    with pytest.raises(SystemExit) as exc:
        main([sub, *path, flag, "x" * 5000])
    message = exc.value.code
    assert isinstance(message, str) and message.startswith("signpipe: ")
    assert "\n" not in message and len(message.encode()) < 120
    assert "(5000 long)" in message


# a token of 21 digits and more is refused as it is parsed: no library
# message echoes it, and no numpy call sees it
LONG_INT_FLAGS = [("latency", "--classes"), ("latency", "--dims"),
                  ("verify", "--skip-class"), ("detect", "--target-class"),
                  ("train", "--seed-stride"), ("synth", "--seed"),
                  ("synth", "--radius"), ("synth", "--ring"),
                  ("synth", "--width"), ("synth", "--height")]


@pytest.mark.parametrize("sub, flag", LONG_INT_FLAGS)
@pytest.mark.parametrize("digits", [21, 4000])
def test_long_int_is_refused_as_it_is_parsed(sub, flag, digits, tmp_path):
    path = [] if sub == "latency" else [str(tmp_path / "frame.ppm")]
    with pytest.raises(SystemExit) as exc:
        main([sub, *path, flag, "-" + "9" * digits])
    message = exc.value.code
    assert message.startswith(f"signpipe: argument {flag}: invalid int value")
    assert "\n" not in message and len(message.encode()) < 120


def test_twenty_digits_still_parse(capsys):
    assert main(["latency", "--dims", "9" * 20]) == 0
    assert f"latency: {3 * int('9' * 20) + 2} cycles" in capsys.readouterr().out


# a value for each flag of `detect` that is not an output
# flag, chosen to change what a run on a noisy disc frame prints
FLAG_VALUES = {"--centers": ["{swapped}"], "--no-gaussian": [],
               "--no-median": [], "--skip-class": ["3"],
               "--area-min": ["5000"], "--ratio-min": ["2"],
               "--ratio-max": ["0.9"], "--target-class": ["2"],
               "--clock-mhz": ["200"], "--color-labels": []}


@pytest.mark.parametrize("sub, flag", [
    ("detect", flag) for flag in FLAGS["detect"]
    if not flag.startswith("--out-")])
def test_no_flag_is_silently_ignored(sub, flag, tmp_path, capsys):
    # with no output flag, a flag either changes stdout or is refused
    frame, swapped = tmp_path / "noisy.ppm", tmp_path / "swapped.json"
    frame.write_bytes(save_pnm(disc_frame(sigma=6.0, seed=42)))
    # yellow and red_low trade class indices
    swapped.write_text(centers_to_json(ClassCenterFile.from_centers(
        [(127, 128), (116, 157), (88, 151), (109, 180)])))
    assert main([sub, str(frame)]) == 0
    plain = capsys.readouterr().out
    values = [v.format(swapped=swapped) for v in FLAG_VALUES[flag]]
    try:
        rc = main([sub, str(frame), flag, *values])
    except SystemExit as exc:
        # a string code: one stderr line and exit status 1
        assert re.fullmatch(rf"signpipe: {flag} needs --out-[a-z -]+",
                            exc.code)
    else:
        assert rc == 0 and capsys.readouterr().out != plain


def test_bad_flag_in_subprocess(frame_path):
    proc = _run_cli("detect", str(frame_path),
                    "--skip-class", "9", "--target-class", "9")
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "signpipe: skip class must be an int in [0, 3], got 9"]


def test_usage_error_in_subprocess(frame_path):
    # argparse errors leave through the same one-line path, exit status 1
    proc = _run_cli("detect", str(frame_path), "--area-min", "abc")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "signpipe: argument --area-min: invalid int value: 'abc'"]


def test_huge_ratio_exponent_fails_fast_in_subprocess(frame_path):
    # Fraction("1e999999999") would build 10**999999999; the timeout turns
    # a regression into a failure instead of a hang
    proc = _run_cli("detect", str(frame_path), "--ratio-max", "1e999999999",
                    timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "signpipe: ratio_max must be a finite decimal, got '1e999999999'"]
