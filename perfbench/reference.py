"""Independent reference for the benchmark's golden outputs.

Recomputes what `signpipe detect` and `signpipe train` produce from the
specification alone: whole-array numpy filters, scipy.ndimage labeling
and the mean-shift iteration replayed once per distinct seed value. It
shares no code with the package, so the goldens for a seed that has no
stored golden file still check the program against something other than
itself.
"""

import hashlib
import json
import math

import numpy as np
from scipy import ndimage

# the shipped default center file, class order = label index
CENTERS = np.array([[127, 128], [88, 151], [116, 157], [109, 180]])
SKIP_CLASSES = (0,)
TARGET_CLASS = 1
AREA_MIN = 200
CLOCK_HZ = 170.0 * 1e6
LATENCY_CYCLES = 3 * CENTERS.shape[1] + math.ceil(math.log2(len(CENTERS)))
GAUSSIAN = np.array([[1, 2, 1], [2, 4, 2], [1, 2, 1]])
GREEN = (0, 255, 0)

# mean-shift settings of the train workload (bandwidth 0.05, stride 4)
BANDWIDTH = 0.05
SEED_STRIDE = 4
TOLERANCE = 1e-4
MAX_ITERATIONS = 500


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def report_digest(report_dict):
    return sha256(json.dumps(report_dict, sort_keys=True).encode())


def seg_digest(seg):
    """Digest of a class-index image, independent of its integer dtype."""
    seg = np.ascontiguousarray(seg, dtype="<i4")
    return sha256(b"%d %d " % seg.shape + seg.tobytes())


def rgb_to_cbcr(rgb):
    """Full-range BT.601 chroma, rounded half-up and clamped."""
    x = rgb.astype(np.float64)
    cb = 128.0 + x @ np.array([-0.168736, -0.331264, 0.5])
    cr = 128.0 + x @ np.array([0.5, -0.418688, -0.081312])
    return np.clip(np.floor(np.stack([cb, cr], -1) + 0.5), 0, 255).astype(np.uint8)


def _windows(plane):
    """The nine edge-replicated 3x3 neighbours of every pixel."""
    h, w = plane.shape
    p = np.pad(plane, 1, mode="edge")
    return [p[dy:dy + h, dx:dx + w] for dy in range(3) for dx in range(3)]


def gaussian(chroma):
    out = np.empty_like(chroma)
    for ch in range(2):
        acc = sum(int(k) * v for k, v in zip(GAUSSIAN.reshape(-1),
                                             _windows(chroma[:, :, ch].astype(np.int64))))
        out[:, :, ch] = (acc + 8) >> 4
    return out


def classify(chroma):
    """Nearest center under the Manhattan metric; ties go to the lower index."""
    x = chroma.astype(np.int64)
    best = np.zeros(x.shape[:2], dtype=np.int64)
    best_d = np.abs(x - CENTERS[0]).sum(-1)
    for j in range(1, len(CENTERS)):
        d = np.abs(x - CENTERS[j]).sum(-1)
        closer = d < best_d
        best[closer] = j
        best_d = np.minimum(best_d, d)
    return best


def median(seg):
    return np.sort(np.stack(_windows(seg)), axis=0)[4]


def label(seg):
    """4-connected same-class components, numbered by first pixel in
    raster order. Returns (id image, list of feature dicts)."""
    h, w = seg.shape
    ids = np.zeros((h, w), dtype=np.int64)
    classes = []
    for c in range(len(CENTERS)):
        if c in SKIP_CLASSES:
            continue
        lab, n = ndimage.label(seg == c)
        ids[lab > 0] = lab[lab > 0] + len(classes)
        classes += [c] * n
    if not classes:
        return ids, []
    flat = ids.reshape(-1)
    found, first = np.unique(flat, return_index=True)
    first, found = first[found > 0], found[found > 0]
    order = found[np.argsort(first)]          # provisional id, raster order
    rank = np.zeros(len(classes) + 1, dtype=np.int64)
    rank[order] = np.arange(1, len(order) + 1)
    ids = rank[ids]
    flat = ids.reshape(-1)
    n = len(order)
    ys, xs = np.divmod(np.arange(h * w), w)
    area = np.bincount(flat, minlength=n + 1)
    sum_x = np.bincount(flat, weights=xs, minlength=n + 1)
    sum_y = np.bincount(flat, weights=ys, minlength=n + 1)
    boxes = ndimage.find_objects(ids)
    comps = []
    for i in range(1, n + 1):
        sy, sx = boxes[i - 1]
        a, cx, cy = int(area[i]), int(sum_x[i]), int(sum_y[i])
        comps.append({"class": classes[order[i - 1] - 1], "area": a,
                      "bbox": [sx.start, sy.start, sx.stop - 1, sy.stop - 1],
                      "centroid": [cx / a, cy / a]})
    return ids, comps


def accepted(comp):
    x0, y0, x1, y1 = comp["bbox"]
    w, h = x1 - x0 + 1, y1 - y0 + 1
    return (comp["class"] == TARGET_CLASS and 7 * h < 10 * w < 30 * h
            and comp["area"] > AREA_MIN)


def annotate(rgb, detections):
    out = rgb.copy()
    for d in detections:
        x0, y0, x1, y1 = d["bbox"]
        out[y0, x0:x1 + 1] = GREEN
        out[y1, x0:x1 + 1] = GREEN
        out[y0:y1 + 1, x0] = GREEN
        out[y0:y1 + 1, x1] = GREEN
    return out


def detect_outputs(rgb, name):
    """What one frame through detect produces: (pre-median class image,
    class image, annotated P6 bytes, report dict)."""
    h, w = rgb.shape[:2]
    pre = classify(gaussian(rgb_to_cbcr(rgb)))
    seg = median(pre)
    _, comps = label(seg)
    detections = [{"component_id": i + 1, "bbox": c["bbox"], "area": c["area"],
                   "centroid": c["centroid"]}
                  for i, c in enumerate(comps) if accepted(c)]
    counts = np.bincount(seg.reshape(-1), minlength=len(CENTERS))
    report = {
        "image": name, "width": w, "height": h,
        "classes": [{"index": i, "pixels": int(n)} for i, n in enumerate(counts)],
        "components": [dict(c, id=i + 1) for i, c in enumerate(comps)],
        "detections": detections,
        "latency_cycles": LATENCY_CYCLES,
        "est_fps": CLOCK_HZ / (w * h),
    }
    ppm = b"P6\n%d %d\n255\n" % (w, h) + annotate(rgb, detections).tobytes()
    return pre, seg, ppm, report


def digest(seg, ppm, report):
    """The golden record of one detect frame."""
    return {"report": report_digest(report), "seg": seg_digest(seg),
            "annotated": sha256(ppm)}


def detect_frame(rgb, name):
    """Golden digests and workload properties for one pipeline frame."""
    pre, seg, ppm, report = detect_outputs(rgb, name)
    counts = [c["pixels"] for c in report["classes"]]
    props = {
        "fg_share": 1.0 - counts[0] / seg.size,
        "components": len(report["components"]),
        "components_pre_median": len(label(pre)[1]),
        "median_changed_px": int(np.count_nonzero(pre != seg)),
        "detections": len(report["detections"]),
        "detection_centroids": [d["centroid"] for d in report["detections"]],
    }
    return digest(seg, ppm, report), props


def train_samples(rgb):
    return rgb_to_cbcr(rgb).reshape(-1, 2)


def train_properties(rgb):
    samples = train_samples(rgb)
    seeds = samples[::SEED_STRIDE]
    return {"samples": len(samples), "seeds": len(seeds),
            "distinct_share": len(np.unique(samples, axis=0)) / len(samples)}


def _converge(pts, y):
    for _ in range(MAX_ITERATIONS):
        inside = pts[((pts - y) ** 2).sum(axis=1) <= BANDWIDTH ** 2]
        new = inside.mean(axis=0) if len(inside) else y
        shift = np.hypot(*(new - y))
        y = new
        if shift < TOLERANCE:
            break
    return y


def train_frame(rgb):
    """Golden modes and support of flat-kernel mean shift on the frame's
    chroma. Each seed's path depends only on its value, so the iteration
    runs once per distinct seed and is replayed in seed order."""
    pts = train_samples(rgb).astype(np.float64) / 255.0
    paths = {}
    converged = []
    for seed in pts[::SEED_STRIDE]:
        key = seed.tobytes()
        if key not in paths:
            paths[key] = _converge(pts, seed)
        converged.append(paths[key])
    merge = BANDWIDTH / 2
    modes, support = [], []
    for y in converged:
        for k, m in enumerate(modes):
            if np.hypot(*(y - m)) <= merge:
                modes[k] = (m * support[k] + y) / (support[k] + 1)
                support[k] += 1
                break
        else:
            modes.append(y.copy())
            support.append(1)
    order = sorted(range(len(modes)),
                   key=lambda k: (-support[k], modes[k][0], modes[k][1]))
    return {"modes": [[int(np.floor(v * 255.0 + 0.5)) for v in modes[k]]
                      for k in order],
            "support": [support[k] for k in order]}
