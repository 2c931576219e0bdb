"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q

The end-to-end cases run short benchmark runs (a frame or two each), so
this file takes about a minute.
"""

import ast
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import scenes  # noqa: E402
import worker  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"] for m in spec["end_to_end"]},
            {m["name"] for m in spec["per_layer"]})


@pytest.mark.parametrize("workload", sorted(scenes.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    first = [raw for _, _, raw in scenes.frames(workload, 7)]
    again = [raw for _, _, raw in scenes.frames(workload, 7)]
    other = [raw for _, _, raw in scenes.frames(workload, 8)]
    assert first == again
    assert len(set(first)) == len(first), "frames in a pool must be distinct"
    assert not set(first) & set(other)


def test_generator_imports_numpy_only():
    tree = ast.parse((HERE / "scenes.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    assert imported == {"numpy"}


def _clutter_frame():
    rgb, _, _ = scenes.frames("clutter_p3", 0)[0]
    return rgb


def test_one_pixel_perturbation_is_flagged():
    rgb = _clutter_frame()
    _, seg, ppm, report = reference.detect_outputs(rgb, "f.ppm")
    golden = [reference.digest(seg, ppm, report)]
    exact = worker.Detect.digest((seg, ppm, json.dumps(report)))
    assert exact == golden[0], "the worker and the reference must digest alike"
    assert run.check([{"frame": 0, "digest": exact}], golden) == 0

    seg_off = seg.copy()
    seg_off[100, 100] = (seg_off[100, 100] + 1) % len(reference.CENTERS)
    ppm_off = bytearray(ppm)
    ppm_off[-1] ^= 1
    report_off = json.loads(json.dumps(report))
    report_off["classes"][0]["pixels"] += 1
    for out in [(seg_off, ppm, report), (seg, bytes(ppm_off), report),
                (seg, ppm, report_off)]:
        rec = {"frame": 0, "digest": worker.Detect.digest(
            (out[0], out[1], json.dumps(out[2])))}
        assert run.check([rec], golden) == 1

    # one input pixel changed: the goldens of the original frame flag it
    rgb_off = rgb.copy()
    rgb_off[240, 320] = 255 - rgb_off[240, 320]
    moved = reference.digest(*reference.detect_outputs(rgb_off, "f.ppm")[1:])
    assert run.check([{"frame": 0, "digest": moved}], golden) == 1
    assert run.check([{"frame": 0, "error": "ValueError: x"}], golden) == 1


def test_stored_goldens_match_the_reference():
    paths = sorted(run.GOLDENS.glob("*.json"))
    assert paths, "goldens from the program are committed for a few seeds"
    for path in paths:
        stored = json.loads(path.read_text())
        pool = scenes.frames(stored["workload"], stored["seed"])
        for k, ((rgb, _, _), golden) in enumerate(zip(pool, stored["frames"])):
            if stored["workload"] == "train_meanshift":
                assert reference.train_frame(rgb) == golden, (path.name, k)
            else:
                name = f"{stored['workload']}-{k}.ppm"
                assert reference.detect_frame(rgb, name)[0] == golden, (path.name, k)


def test_reference_orders_components_by_first_pixel():
    seg = np.array([[0, 2, 2, 0],
                    [1, 0, 2, 1],
                    [1, 1, 0, 1]])
    ids, comps = reference.label(seg)
    assert ids.tolist() == [[0, 1, 1, 0], [2, 0, 1, 3], [2, 2, 0, 3]]
    assert [(c["class"], c["area"], c["bbox"]) for c in comps] == [
        (2, 3, [1, 0, 2, 1]), (1, 3, [0, 1, 1, 2]), (1, 2, [3, 1, 3, 2])]


def _bench(tmp_root, *args):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=tmp_root, capture_output=True, text=True, timeout=180)
    return proc


@pytest.mark.parametrize("workload,trace", [("train_meanshift", 0),
                                            ("clutter_p3", 1)])
def test_printed_metrics_are_declared(workload, trace):
    end_to_end, per_layer = declared()
    proc = _bench(ROOT, "--workload", workload, "--seed", "3",
                  "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == (per_layer if trace else end_to_end)
    printed = [line.split()[1] for line in lines[:-1]
               if line.startswith(("metric ", "property "))]
    assert set(printed) >= set(result["metrics"]) - {"image.input_mb"}
    for name in printed:
        assert NAME.fullmatch(name) and name in end_to_end | per_layer, name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "paper_clean", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
