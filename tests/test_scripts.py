"""Smoke runs of the experiment scripts, each in its own interpreter with
small arguments: they exit 0 and print their closing line."""

import os
import subprocess
import sys
from pathlib import Path


ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    # a deprecation fails out of process as pytest's filterwarnings
    # makes it fail in process
    proc = subprocess.run([sys.executable, "-W", "error::DeprecationWarning",
                           "-W", "error::PendingDeprecationWarning",
                           str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_ablation_experiment():
    out = run_script("ablation_experiment.py", "--size", "64", "--radius",
                     "12", "--sigmas", "0", "4")
    lines = out.splitlines()
    assert lines[0].split() == ["sigma", "no", "filters", "filters",
                                "reduction"]
    assert [line.split()[0] for line in lines[1:]] == ["0", "4"]


def test_detection_demo(tmp_path):
    out = run_script("detection_demo.py", "--out-dir", str(tmp_path))
    assert f"artifacts written to {tmp_path}/" in out
    for name in ("input.ppm", "segmented.ppm", "components.ppm",
                 "annotated.ppm", "report.json"):
        assert (tmp_path / name).is_file()
