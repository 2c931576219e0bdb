"""One benchmark process: import signpipe, then run the timed loop.

Started by run.py with a JSON header line and the frame pool's PPM bytes
on stdin; prints one JSON object on stdout. It runs in a fresh process so
that `setup_s` covers the import and lazy set-up users pay on every
invocation, and `peak_rss_mb` counts only this workload.

The loop is closed: one caller, one frame at a time, the next frame
after the previous one's outputs exist. Only the unit of work is timed;
hashing the outputs for the golden check happens between frames, and so
does the host-speed calibration (hostspeed.py), at most once a second.

The traced loop calls the stages in `run_pipeline`'s order and times
each call from outside the package.

numpy is imported inside functions so that `setup_s`, whose clock starts
before `import signpipe`, includes it.
"""

import hashlib
import json
import resource
import sys
import time

import hostspeed

CALIBRATE_EVERY_S = 1.0

# a 4x4 grey P6 frame for warming up lazy set-up
TINY = b"P6\n4 4\n255\n" + bytes([128]) * 48
TRAIN_BANDWIDTH = 0.05
TRAIN_STRIDE = 4


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _seg_digest(seg):
    import numpy as np
    seg = np.ascontiguousarray(seg, dtype="<i4")
    return _sha(b"%d %d " % seg.shape + seg.tobytes())


def _span(spans, key, fn, *args):
    """Call fn(*args) and record its wall time under `key`."""
    t0 = time.perf_counter()
    out = fn(*args)
    spans[key] = time.perf_counter() - t0
    return out


class Detect:
    """`signpipe detect --out-annotated --out-report`, minus argparse and disk."""

    def __init__(self, sp):
        self.sp = sp
        self.config = sp.PipelineConfig()

    def run(self, raw, name):
        sp = self.sp
        report, art = sp.run_pipeline(self.config, sp.load_pnm(raw), name)
        return art.seg.data, sp.save_pnm(art.annotated), json.dumps(report.to_dict())

    def traced(self, raw, name):
        sp, config = self.sp, self.config
        spans = {}
        rgb = _span(spans, "image.load_pnm", sp.load_pnm, raw)
        t0 = time.perf_counter()
        chroma = _span(spans, "image.rgb_to_cbcr", sp.rgb_to_cbcr, rgb)
        chroma = _span(spans, "filters.gaussian3x3", sp.gaussian3x3, chroma)
        seg = _span(spans, "mdc.classify_image", sp.classify_image, config.centers, chroma)
        seg = _span(spans, "filters.median3x3", sp.median3x3, seg)
        _, comps = _span(spans, "ccl.label_components", sp.label_components, seg,
                         config.skip_classes)
        dets = _span(spans, "detector.detect", sp.detect, comps, config.rule)
        annotated = _span(spans, "detector.annotate", sp.annotate, rgb, dets)
        # the rest of run_pipeline: class counts and the report
        import numpy as np
        counts = np.bincount(seg.data.reshape(-1), minlength=config.centers.num_classes)
        model = sp.PipelineModel(config.centers.dims, config.centers.num_classes,
                                 config.centers.resolution_bits)
        fps = sp.estimate_frame_rate(config.clock_mhz * 1e6, rgb.width, rgb.height)
        report = sp.FrameReport(name, rgb.width, rgb.height, [int(n) for n in counts],
                                comps, dets, model.latency, fps)
        stages = sum(v for k, v in spans.items() if k != "image.load_pnm")
        spans["pipeline.self"] = time.perf_counter() - t0 - stages
        ppm = _span(spans, "image.save_pnm", sp.save_pnm, annotated)
        text = _span(spans, "pipeline.to_dict", lambda: json.dumps(report.to_dict()))
        return (seg.data, ppm, text), spans

    @staticmethod
    def digest(out):
        seg, ppm, text = out
        return {"report": _sha(json.dumps(json.loads(text), sort_keys=True).encode()),
                "seg": _seg_digest(seg), "annotated": _sha(ppm)}

    def model_check(self, schedule, width, height):
        """Cycle-model figures for this frame size, and the stepped
        simulation's (cycle, label) outputs for a short schedule."""
        sp, centers = self.sp, self.config.centers
        model = sp.PipelineModel(centers.dims, centers.num_classes,
                                 centers.resolution_bits)
        out = sp.simulate_pipeline(model, centers, [tuple(x) for x in schedule])
        return {"latency_cycles": model.latency,
                "sim_cycles": [c for c, _ in out],
                "sim_labels": [label for _, label in out],
                "fps": sp.estimate_frame_rate(self.config.clock_mhz * 1e6,
                                              width, height)}


class Train:
    """`signpipe train --bandwidth 0.05 --out-centers`, minus argparse and disk."""

    def __init__(self, sp):
        self.sp = sp
        self.config = sp.MeanShiftConfig(bandwidth=TRAIN_BANDWIDTH,
                                          seed_stride=TRAIN_STRIDE)

    def _centers(self, result):
        names = [f"class{i}" for i in range(len(result.modes))]
        return self.sp.centers_to_file(result, names)

    def run(self, raw, name):
        sp = self.sp
        samples = sp.rgb_to_cbcr(sp.load_pnm(raw)).data.reshape(-1, 2)
        result = sp.mean_shift(samples, self.config)
        return result, self._centers(result)

    def traced(self, raw, name):
        sp = self.sp
        spans = {}
        rgb = _span(spans, "image.load_pnm", sp.load_pnm, raw)
        chroma = _span(spans, "image.rgb_to_cbcr", sp.rgb_to_cbcr, rgb)
        result = _span(spans, "trainer.mean_shift", sp.mean_shift,
                       chroma.data.reshape(-1, 2), self.config)
        return (result, self._centers(result)), spans

    @staticmethod
    def digest(out):
        result, _ = out
        return {"modes": [list(m) for m in result.modes],
                "support": list(result.support)}


def _settle(pending, factor):
    """Average a new host-speed factor into the frames run since the
    previous calibration, so each frame gets the mean of the two around it."""
    for rec in pending:
        rec["host"] = (rec["host"] + factor) / 2
    pending.clear()
    return factor


def _loop(unit, pool, names, count, seconds, traced):
    """Run frames in pool order, cycling: at least `count` frames, then as
    long as one more frame at the mean pace so far ends within `seconds`.
    Returns one record per frame, with its host-speed factor."""
    records, pending = [], []
    start = time.perf_counter()
    calibrated = None
    i = 0
    while i < count or (time.perf_counter() - start) * (i + 1) / i <= seconds:
        if calibrated is None or time.perf_counter() - calibrated >= CALIBRATE_EVERY_S:
            host = _settle(pending, hostspeed.calibrate())
            calibrated = time.perf_counter()
        k = i % len(pool)
        rec = {"frame": k, "host": host}
        t0 = time.perf_counter()
        try:
            if traced:
                out, spans = unit.traced(pool[k], names[k])
            else:
                out = unit.run(pool[k], names[k])
            rec["s"] = time.perf_counter() - t0
            if traced:
                rec["spans"] = spans
            rec["digest"] = unit.digest(out)
        except Exception as exc:  # a failed frame is counted, not fatal
            rec["error"] = f"{type(exc).__name__}: {exc}"
        records.append(rec)
        pending.append(rec)
        i += 1
    _settle(pending, hostspeed.calibrate())
    return records


def main():
    header = json.loads(sys.stdin.buffer.readline())
    pool = [sys.stdin.buffer.read(n) for n in header["sizes"]]
    names = [f"{header['workload']}-{k}.ppm" for k in range(len(pool))]

    t0 = time.perf_counter()
    sys.path.insert(0, header["src"])
    import signpipe as sp
    unit = (Train if header["workload"] == "train_meanshift" else Detect)(sp)
    unit.run(TINY, "tiny.ppm")
    result = {"setup_s": time.perf_counter() - t0, "module": sp.__file__}

    if pool:
        seconds = header["seconds"]
        if header["trace"]:
            seconds /= 2
        result["frames"] = _loop(unit, pool, names, header["min_frames"],
                                 seconds, traced=False)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if header["trace"]:
            result["traced"] = _loop(unit, pool, names, len(result["frames"]),
                                     0.0, traced=True)
        if "schedule" in header:
            result["model"] = unit.model_check(header["schedule"], *header["size"])
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
