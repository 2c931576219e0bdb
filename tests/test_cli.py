import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from signpipe.cli import main
from signpipe.detector import annotate
from signpipe.image import load_pnm, save_pnm
from signpipe.pipeline import PipelineConfig, run_pipeline
from signpipe.synthetic import background_frame, disc_frame


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
    for stage in ("gaussian", "classify", "median", "labeling"):
        assert f"{stage}: ok" in out


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


def test_synth_subcommand(tmp_path):
    path = tmp_path / "synth.ppm"
    assert main(["synth", str(path), "--width", "80", "--height", "60"]) == 0
    img = load_pnm(path.read_bytes())
    assert (img.width, img.height) == (80, 60)


def test_missing_file_exits(tmp_path):
    with pytest.raises(SystemExit):
        main(["detect", str(tmp_path / "nope.ppm")])


@pytest.mark.parametrize("argv", [
    ["detect", "{frame}", "--ratio-min", "abc"],
    ["detect", "{frame}", "--ratio-min", "5"],
    ["detect", "{frame}", "--skip-class", "9"],
    ["detect", "{frame}", "--target-class", "9"],
    ["detect", "{frame}", "--skip-class", "9", "--target-class", "9"],
    ["segment", "{frame}", "--target-class", "-1"],
    ["detect", "{frame}", "--centers", "{no_name}"],
    ["detect", "{frame}", "--centers", "{tmp}/missing.json"],
    ["detect", "{frame}", "--clock-mhz", "0"],
    ["detect", "{frame}", "--clock-mhz", "inf", "--out-report", "{tmp}/r.json"],
    ["ablate", "{frame}", "--clock-mhz", "inf"],
    ["detect", "{frame}", "--out-report", "{tmp}/no/such/dir/r.json"],
    ["train", "{frame}", "--bandwidth", "0"],
    ["train", "{frame}", "--bandwidth", "nan"],
    ["train", "{frame}", "--bandwidth", "inf"],
    ["train", "{frame}", "--bandwidth", "2"],
    ["latency", "--classes", "1"],
    ["latency", "--clock-mhz", "nan"],
    ["latency", "--clock-mhz", "inf"],
    ["synth", "{tmp}/s.ppm", "--width", "0"],
    ["verify", "{frame}", "--out-report", "{tmp}/r.json"],
    ["ablate", "{frame}", "--out-seg", "{tmp}/s.ppm"],
    ["detect", "{frame}", "--area-min", "abc"],
    ["detect", "{frame}", "--no-such-flag"],
    ["detect", "{tmp}/truncated.ppm"],
    ["detect", "{frame}", "--centers", "{tmp}/deep.json"],
    ["synth", "{tmp}/s.ppm", "--radius", "-5"],
    ["synth", "{tmp}/s.ppm", "--ring", "-100"],
    ["synth", "{tmp}/s.ppm", "--sigma", "nan"],
    ["synth", "{tmp}/s.ppm", "--sigma", "-3"],
], ids=["ratio_not_a_number", "ratio_min_above_max", "skip_class_range",
        "target_class_range", "both_class_flags", "negative_target",
        "center_without_name", "missing_center_file", "zero_clock",
        "infinite_clock", "infinite_clock_ablate", "unwritable_output",
        "zero_bandwidth", "nan_bandwidth", "infinite_bandwidth",
        "single_mode", "one_class", "nan_latency_clock",
        "infinite_latency_clock", "zero_width", "verify_output_flag",
        "ablate_output_flag", "area_not_an_integer", "unknown_flag",
        "truncated_frame", "deeply_nested_centers", "negative_radius",
        "negative_ring", "nan_sigma", "negative_sigma"])
def test_bad_input_exits_with_one_line(argv, frame_path, tmp_path):
    no_name = tmp_path / "no_name.json"
    no_name.write_text('{"classes": [{"center": [127, 128]},'
                       ' {"name": "yellow", "center": [88, 151]}]}')
    (tmp_path / "truncated.ppm").write_bytes(b"P3 2 1 255\n1 2 3 4 5")
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    argv = [a.format(frame=frame_path, no_name=no_name, tmp=tmp_path)
            for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    # a string code is printed to stderr as one line, with exit status 1
    message = exc.value.code
    assert isinstance(message, str) and message.startswith("signpipe: ")
    assert "\n" not in message


def _run_cli(*argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"),
         os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "signpipe.cli", *argv],
                          capture_output=True, text=True, env=env)


def test_bad_flag_in_subprocess(frame_path):
    proc = _run_cli("detect", str(frame_path),
                    "--skip-class", "9", "--target-class", "9")
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "signpipe: --skip-class 9 is not a class index in [0, 4)"]


def test_usage_error_in_subprocess(frame_path):
    # argparse errors leave through the same one-line path, exit status 1
    proc = _run_cli("detect", str(frame_path), "--area-min", "abc")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "signpipe: argument --area-min: invalid int value: 'abc'"]
