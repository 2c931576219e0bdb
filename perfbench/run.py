"""signpipe benchmark: one workload, one run, every metric by name.

    python3 perfbench/run.py --workload paper_clean --seed 1 --seconds 35 --trace 0

Run from the root of a signpipe checkout; it imports the package from
./src. The frame pool is generated from --seed by scenes.py before any
timing. A fresh worker process (worker.py) imports signpipe and runs a
closed loop, one caller and one frame at a time, for --seconds. Every
output is checked bit-exactly against goldens: the stored file
goldens/<workload>-<seed>.json when there is one, else the independent
reference in reference.py.

Timings are reported at the reference host speed: each is divided by
the host-speed factor that hostspeed.py measures around it, because the
shared host's speed drifts by tens of percent within minutes. The
figures as measured are printed on "note:" lines.

--trace 0 prints the end-to-end metrics declared in BENCHMARK.json.
--trace 1 splits the time between an untraced loop and a traced loop
over the same frames, which times each stage call, and prints the
per-layer metrics. --write-goldens stores this checkout's outputs for
the seed, so later commits can be compared with it.

The last stdout line is one JSON object: correct, attempted, failed and
metrics. The exit code is 0 unless the run could not be made at all.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import hostspeed
import reference
import scenes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = HERE / "goldens"
SETUP_RUNS = 7          # fresh processes per run; setup_s is their median
RUN_LIMIT_S = 170.0     # a run ends well inside its 180 s budget

PER_LAYER_UNITS = {
    "image.load_pnm.ms": "ms", "image.rgb_to_cbcr.ms": "ms",
    "image.save_pnm.ms": "ms", "image.input_mb": "MB",
    "filters.gaussian3x3.ms": "ms", "filters.median3x3.ms": "ms",
    "filters.median_changed_px": "count",
    "mdc.classify_image.ms": "ms", "mdc.fg_share": "ratio",
    "mdc.model_latency_cycles": "cycles", "mdc.model_fps": "frames/s",
    "ccl.label_components.ms": "ms", "ccl.components": "count",
    "ccl.components_pre_median": "count",
    "detector.detect.ms": "ms", "detector.annotate.ms": "ms",
    "detector.detections": "count", "detector.accept_ratio": "ratio",
    "detector.planted_found": "count",
    "pipeline.self.ms": "ms", "pipeline.to_dict.ms": "ms",
    "pipeline.trace_overhead.ms": "ms",
    "trainer.mean_shift.s": "s", "trainer.samples": "count",
    "trainer.seeds": "count", "trainer.distinct_share": "ratio",
    "trainer.modes": "count",
}
END_TO_END_UNITS = {"fps": "frames/s", "frame_ms_p50": "ms", "setup_s": "s",
                    "peak_rss_mb": "MB"}
STAGES = ["image.load_pnm", "image.rgb_to_cbcr", "filters.gaussian3x3",
          "mdc.classify_image", "filters.median3x3", "ccl.label_components",
          "detector.detect", "detector.annotate", "pipeline.self",
          "image.save_pnm", "pipeline.to_dict", "trainer.mean_shift"]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(scenes.WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-goldens", action="store_true",
                   help="store this checkout's outputs as the seed's goldens")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not 0 < args.seconds <= 60:
        p.error("--seconds must be in (0, 60]")
    return args


def golden_path(workload, seed):
    return GOLDENS / f"{workload}-{seed}.json"


def expectations(workload, seed, pool):
    """(golden digest per pool frame, where they came from, properties
    per pool frame). Properties come from the reference either way."""
    path = golden_path(workload, seed)
    stored = json.loads(path.read_text())["frames"] if path.is_file() else None
    goldens, props = [], []
    for k, (rgb, signs, _) in enumerate(pool):
        if workload == "train_meanshift":
            p = reference.train_properties(rgb)
            g = stored[k] if stored else reference.train_frame(rgb)
            p["modes"] = len(g["modes"])
        else:
            g, p = reference.detect_frame(rgb, f"{workload}-{k}.ppm")
            centroids = p.pop("detection_centroids")
            found = [any(math.dist(c, s) <= 3.0 for c in centroids) for s in signs]
            p["planted_found"] = sum(found)
            p["accept_ratio"] = p["detections"] / p["components"]
            if stored:
                g = stored[k]
        goldens.append(g)
        props.append(p)
    return goldens, (path.name if stored else "reference.py"), props


def run_worker(workload, pool, seconds, trace, min_frames, timeout, **extra):
    header = {"workload": workload, "src": str(SRC), "seconds": seconds,
              "trace": trace, "min_frames": min_frames,
              "sizes": [len(raw) for _, _, raw in pool], **extra}
    stdin = json.dumps(header).encode() + b"\n" + b"".join(raw for _, _, raw in pool)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=stdin,
                              capture_output=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: benchmark worker still running after {timeout:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise SystemExit(f"error: benchmark worker exited with {proc.returncode}")
    out = json.loads(proc.stdout)
    if Path(out["module"]).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"error: imported signpipe from {out['module']}, "
                         f"not from {SRC}")
    return out


def check(records, goldens, twins=()):
    """Count the frames that raised or whose outputs differ from the golden
    or, for traced frames, from the untraced run of the same frame."""
    failed = 0
    for rec, twin in zip(records, list(twins) or [None] * len(records)):
        expected = goldens[rec["frame"]]
        if "error" in rec:
            print(f"FAIL frame {rec['frame']}: {rec['error']}")
        elif rec["digest"] != expected:
            bad = [k for k in rec["digest"] if rec["digest"][k] != expected.get(k)]
            print(f"FAIL frame {rec['frame']}: output differs from golden in {bad}")
        elif twin is not None and twin.get("digest") != rec["digest"]:
            print(f"FAIL frame {rec['frame']}: traced stages differ from run_pipeline")
        else:
            continue
        failed += 1
    return failed


def model_schedule(rgb):
    """Chroma vectors for the cycle-model simulation: the class centers,
    then pixels spread over the frame."""
    pixels = reference.rgb_to_cbcr(rgb).reshape(-1, 2)
    spread = pixels[::len(pixels) // 28][:28]
    return reference.CENTERS.tolist() + spread.tolist()


def check_model(model, schedule, width, height):
    """The cycle model's latency against 3*D + ceil(log2 C), its stepped
    simulation against one label per cycle after that latency, and its
    frame rate against clock / pixels."""
    labels = reference.classify(np.array(schedule).reshape(1, -1, 2))[0].tolist()
    lat = model["latency_cycles"]
    ok = (lat == reference.LATENCY_CYCLES
          and model["sim_cycles"] == [lat + t for t in range(len(schedule))]
          and model["sim_labels"] == labels
          and model["fps"] == reference.CLOCK_HZ / (width * height))
    if not ok:
        print("FAIL cycle model: latency, simulation or frame rate disagrees")
    return ok


def median_ms(values):
    return 1000.0 * statistics.median(values)


def tail_note(times_ms):
    """The highest of p90/p99/p99.9 with at least ten frames beyond it."""
    n = len(times_ms)
    for q in (99.9, 99.0, 90.0):
        if n * (100.0 - q) / 100.0 >= 10:
            value = statistics.quantiles(times_ms, n=1000, method="inclusive")[
                round(q * 10) - 1]
            return f"frame_ms p{q:g} {value:.4f} ms over {n} frames (not gated)"
    return f"no percentile above p50 has ten frames beyond it over {n} frames"


def setup_seconds(workload, timeout):
    """Median over fresh processes of import and first call: at the
    reference host speed, as measured, and the host-speed factor. Each
    sample is divided by the import factor measured just before it."""
    measured, factors = [], []
    for _ in range(SETUP_RUNS):
        factors.append(hostspeed.import_factor())
        measured.append(run_worker(workload, [], 0, 0, 0, timeout)["setup_s"])
    return (statistics.median(s / f for s, f in zip(measured, factors)),
            statistics.median(measured), statistics.median(factors))


def properties(workload, props, mb):
    """Per-frame medians, over the pool, of what the workload was chosen for."""
    keys = (["samples", "seeds", "distinct_share", "modes"]
            if workload == "train_meanshift" else
            ["fg_share", "components_pre_median", "components", "median_changed_px",
             "detections", "accept_ratio", "planted_found"])
    values = {"image.input_mb": mb}
    for name in PER_LAYER_UNITS:
        key = name.split(".", 1)[1]
        if key in keys:
            values[name] = statistics.median(p[key] for p in props)
    return values


def per_layer(shown, untraced, traced, model):
    """Per-layer metrics: stage times are per-frame medians from the traced
    loop, counts come from the properties. Layers the workload does not
    run read 0."""
    values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    values.update(shown)
    for stage in STAGES:
        samples = [r["spans"][stage] / r["host"] for r in traced
                   if stage in r.get("spans", {})]
        if samples:
            if stage == "trainer.mean_shift":
                values[f"{stage}.s"] = statistics.median(samples)
            else:
                values[f"{stage}.ms"] = median_ms(samples)
    ok_untraced = [r["s"] / r["host"] for r in untraced if "s" in r]
    ok_traced = [r["s"] / r["host"] for r in traced if "s" in r]
    if model and ok_untraced and ok_traced:
        values["pipeline.trace_overhead.ms"] = median_ms(ok_traced) - median_ms(ok_untraced)
        values["mdc.model_latency_cycles"] = model["latency_cycles"]
        values["mdc.model_fps"] = model["fps"]
    return values


def layer_shares(traced):
    """Median over traced frames of each layer's share of the frame time."""
    frames = []
    for r in traced:
        if "s" in r:
            shares = {}
            for stage, seconds in r["spans"].items():
                layer = stage.split(".")[0]
                shares[layer] = shares.get(layer, 0.0) + seconds / r["s"]
            frames.append(shares)
    return {layer: statistics.median(f[layer] for f in frames)
            for layer in (frames[0] if frames else {})}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "signpipe" / "__init__.py").is_file():
        print(f"error: no signpipe sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    workload = args.workload

    def remaining():
        return max(1.0, RUN_LIMIT_S - (time.monotonic() - started))

    pool = scenes.frames(workload, args.seed)
    goldens, source, props = expectations(workload, args.seed, pool)
    rgb0, _, raw0 = pool[0]
    height, width = rgb0.shape[:2]
    mb = statistics.median(len(raw) for _, _, raw in pool) / 1e6
    print(f"signpipe benchmark: workload {workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"inputs: {len(pool)} distinct {width}x{height} {raw0[:2].decode()} frames, "
          f"goldens from {source}")
    shown = properties(workload, props, mb)
    for name, value in shown.items():
        print(f"property {name} {value:.6g} {PER_LAYER_UNITS[name]} (median per frame)")

    extra = {}
    if workload != "train_meanshift":
        extra = {"schedule": model_schedule(rgb0), "size": [width, height]}
    out = run_worker(workload, pool, args.seconds, args.trace,
                     len(pool) if args.write_goldens else 1, remaining(), **extra)
    untraced, traced = out["frames"], out.get("traced", [])
    attempted = len(untraced) + len(traced)
    failed = check(untraced, goldens) + check(traced, goldens, untraced)
    model = out.get("model")
    if model:
        attempted += 1
        failed += not check_model(model, extra["schedule"], width, height)

    done = [r for r in untraced if "s" in r]
    times = [r["s"] / r["host"] for r in done]
    if args.trace:
        metrics = per_layer(shown, untraced, traced, model)
        units = PER_LAYER_UNITS
        shares = layer_shares(traced)
        if shares:
            print("note: share of the traced frame time by layer: " + ", ".join(
                f"{layer} {share:.3f}" for layer, share in shares.items()))
        if model:
            print(f"note: mdc.model_fps {model['fps']:.1f} frames/s is the cycle "
                  f"model at 170 MHz, not the software's frame rate")
    else:
        setup, setup_measured, setup_host = setup_seconds(workload, remaining())
        metrics = {"fps": len(times) / sum(times) if times else 0.0,
                   "frame_ms_p50": median_ms(times) if times else 0.0,
                   "setup_s": setup,
                   "peak_rss_mb": out["peak_rss_mb"]}
        units = END_TO_END_UNITS
        if done:
            measured = [r["s"] for r in done]
            host = statistics.median(r["host"] for r in done)
            print(f"note: as measured, at host-speed factor {host:.3f} (1 = reference): "
                  f"fps {len(measured) / sum(measured):.6g}, "
                  f"frame_ms_p50 {median_ms(measured):.6g} ms")
            print(f"note: {tail_note([1000.0 * t for t in times])}")
        print(f"note: as measured, at host-speed factor {setup_host:.3f} (1 = "
              f"reference): setup_s {setup_measured:.6g} s")
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    print(f"check: error_ratio {failed / attempted:g} "
          f"({failed} failed of {attempted} attempted)")

    if args.write_goldens:
        digests = [None] * len(pool)
        for rec in untraced:
            digests[rec["frame"]] = rec.get("digest")
        if failed or None in digests:
            print("error: not writing goldens from a run with failures", file=sys.stderr)
            return 1
        path = golden_path(workload, args.seed)
        path.write_text(json.dumps({"workload": workload, "seed": args.seed,
                                    "frames": digests}, indent=1) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
