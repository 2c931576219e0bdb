import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from signpipe import pipeline
from signpipe.cli import main
from signpipe.detector import annotate
from signpipe.image import load_pnm, rgb_to_cbcr, save_pnm
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
    assert load_pnm(seg_path.read_bytes()).height == 200


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


def test_segment_prints_class_counts(frame_path, capsys):
    assert main(["segment", str(frame_path)]) == 0
    out = capsys.readouterr().out
    assert "class 0:" in out and "class 3:" in out


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
    return type(img)(img.width, img.height, data)


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


@pytest.mark.parametrize("stage", WRONG_STAGES)
def test_verify_names_the_stage_at_fault(stage, tmp_path, capsys,
                                         monkeypatch):
    path = tmp_path / "small.ppm"
    path.write_bytes(save_pnm(disc_frame(48, 48, 10, 4)))
    name, wrong = WRONG_STAGES[stage]
    monkeypatch.setattr(pipeline, name, wrong(getattr(pipeline, name)))
    assert main(["verify", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    for other in WRONG_STAGES:
        assert f"{other}: {'MISMATCH' if other == stage else 'ok'}" in out


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
# frame and the printed detections, so only segment and detect take them
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
    (["detect", "{frame}", "--skip-class", "9"], "skip class 9 is not"),
    (["detect", "{frame}", "--target-class", "9"], "target class 9 is not"),
    (["detect", "{frame}", "--skip-class", "9", "--target-class", "9"],
     "skip class 9 is not"),
    (["segment", "{frame}", "--target-class", "-1"], "target class -1 is not"),
    (["detect", "{frame}", "--centers", "{no_name}"],
     'class 0 needs a "name"'),
    (["detect", "{frame}", "--centers", "{tmp}/missing.json"],
     "No such file or directory"),
    (["detect", "{frame}", "--clock-mhz", "0"],
     "clock_mhz must be finite and > 0, got 0.0"),
    (["detect", "{frame}", "--clock-mhz", "inf",
      "--out-report", "{tmp}/r.json"],
     "clock_mhz must be finite and > 0, got inf"),
    (["ablate", "{frame}", "--clock-mhz", "inf"],
     "unrecognized arguments: --clock-mhz"),
    (["detect", "{frame}", "--out-report", "{tmp}/no/such/dir/r.json"],
     "No such file or directory"),
    (["train", "{frame}", "--bandwidth", "0"],
     "bandwidth must be finite and > 0, got 0.0"),
    (["train", "{frame}", "--bandwidth", "nan"],
     "bandwidth must be finite and > 0, got nan"),
    (["train", "{frame}", "--bandwidth", "inf"],
     "bandwidth must be finite and > 0, got inf"),
    (["train", "{frame}", "--bandwidth", "1e308"],
     "bandwidth must be finite and > 0, got 1e+308"),
    (["train", "{frame}", "--bandwidth", "2"],
     "num_classes must be >= 2, got 1"),
    (["latency", "--classes", "1"], "num_classes must be >= 2, got 1"),
    (["latency", "--clock-mhz", "nan"],
     "frequency must be finite and > 0, got nan"),
    (["latency", "--clock-mhz", "inf"],
     "frequency must be finite and > 0, got inf"),
    (["latency", "--width", "1" + "0" * 400], "x630 is too large"),
    (["synth", "{tmp}/s.ppm", "--width", "0"],
     "image dimensions must be >= 1, got 0x200"),
    (["verify", "{frame}", "--out-report", "{tmp}/r.json"],
     "unrecognized arguments: --out-report"),
    (["ablate", "{frame}", "--out-seg", "{tmp}/s.ppm"],
     "unrecognized arguments: --out-seg"),
    (["detect", "{frame}", "--area-min", "abc"],
     "argument --area-min: invalid int value: 'abc'"),
    (["detect", "{frame}", "--no-such-flag"],
     "unrecognized arguments: --no-such-flag"),
    (["detect", "{tmp}/truncated.ppm"], "truncated payload"),
    (["detect", "{frame}", "--centers", "{tmp}/deep.json"],
     "center file is nested too deeply"),
    (["detect", "{frame}", "--centers", "{tmp}/long_value.json"],
     "cell 0 value 10000000000000000000... (4000 long) exceeds 8-bit"),
    (["detect", "{frame}", "--centers", "{tmp}/long_bits.json"],
     "resolution_bits must be an integer, got 'xxxxxxxxxxxxxxxxxxx... "
     "(100002 long)"),
    (["synth", "{tmp}/s.ppm", "--radius", "-5"],
     "radius and ring must be >= 0, got -5 and 10"),
    (["synth", "{tmp}/s.ppm", "--ring", "-100"],
     "radius and ring must be >= 0, got 30 and -100"),
    (["synth", "{tmp}/s.ppm", "--sigma", "nan"],
     "sigma must be finite and >= 0, got nan"),
    (["synth", "{tmp}/s.ppm", "--sigma", "-3"],
     "sigma must be finite and >= 0, got -3.0"),
    (["synth", "{tmp}/s.ppm", "--width", "4097"],
     "sides must be <= 4096, got 4097x200"),
    (["synth", "{tmp}/s.ppm", "--height", "4097"],
     "sides must be <= 4096, got 200x4097"),
    (["synth", "{tmp}/s.ppm", "--seed", "-1"], "seed must be >= 0, got -1"),
] + REPORT_FLAG_REFUSALS,
   ids=["ratio_not_a_number", "ratio_nan", "ratio_huge_exponent",
        "ratio_min_above_max", "skip_class_range",
        "target_class_range", "both_class_flags", "negative_target",
        "center_without_name", "missing_center_file", "zero_clock",
        "infinite_clock", "infinite_clock_ablate", "unwritable_output",
        "zero_bandwidth", "nan_bandwidth", "infinite_bandwidth",
        "huge_bandwidth",
        "single_mode", "one_class", "nan_latency_clock",
        "infinite_latency_clock", "latency_frame_too_large", "zero_width",
        "verify_output_flag",
        "ablate_output_flag", "area_not_an_integer", "unknown_flag",
        "truncated_frame", "deeply_nested_centers", "long_center_value",
        "long_resolution_bits", "negative_radius",
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
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=timeout)


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
    "segment": CONFIG_FLAGS + REPORT_FLAGS,
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
    assert sum(map(len, taken.values())) == 49


def test_bad_flag_in_subprocess(frame_path):
    proc = _run_cli("detect", str(frame_path),
                    "--skip-class", "9", "--target-class", "9")
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "signpipe: skip class 9 is not a class index in [0, 4)"]


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
