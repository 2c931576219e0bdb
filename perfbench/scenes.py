"""Seeded scene generator for the benchmark workloads (numpy only).

Scenes are painted in the (Cb, Cr) chroma plane at the shipped class
colors and converted to RGB at a fixed luma with this module's own
BT.601 inverse. Nothing here imports signpipe, so a change to package
code cannot change the inputs a benchmark run feeds it.

Each workload draws every frame from its own random stream, keyed by
(seed, workload, frame index): the same seed gives the same bytes.
"""

import numpy as np

BACKGROUND = (127, 128)
YELLOW = (88, 151)
RED = (116, 157)
LUMA = 128

# workload name -> stream key, so two workloads never share random draws
_STREAM = {"paper_clean": 1, "clutter_p3": 2, "train_meanshift": 3}


def chroma_to_rgb(chroma):
    """(H, W, 2) float chroma -> (H, W, 3) uint8 RGB at luma LUMA."""
    cb = chroma[:, :, 0] - 128.0
    cr = chroma[:, :, 1] - 128.0
    rgb = np.stack([LUMA + 1.402 * cr,
                    LUMA - 0.344136 * cb - 0.714136 * cr,
                    LUMA + 1.772 * cb], axis=-1)
    return np.clip(np.floor(rgb + 0.5), 0, 255).astype(np.uint8)


def _canvas(width, height):
    plane = np.empty((height, width, 2), dtype=np.float64)
    plane[:, :] = BACKGROUND
    return plane


def _disc(plane, cx, cy, radius, chroma):
    """Paint a filled disc, touching only its bounding box."""
    h, w = plane.shape[:2]
    y0, y1 = max(0, int(cy - radius)), min(h, int(cy + radius) + 1)
    x0, x1 = max(0, int(cx - radius)), min(w, int(cx + radius) + 1)
    yy, xx = np.mgrid[y0:y1, x0:x1]
    mask = (xx - cx) ** 2 + (yy - cy) ** 2 <= radius ** 2
    plane[y0:y1, x0:x1][mask] = chroma


def _sign(plane, cx, cy, radius, ring):
    _disc(plane, cx, cy, radius + ring, RED)
    _disc(plane, cx, cy, radius, YELLOW)


def _place(rng, count, width, height, outer, gap):
    """Centers of `count` discs of radius `outer` that neither overlap
    each other (by at least `gap` pixels) nor touch the frame border."""
    centers = []
    while len(centers) < count:
        cx = int(rng.integers(outer + 2, width - outer - 2))
        cy = int(rng.integers(outer + 2, height - outer - 2))
        if all((cx - x) ** 2 + (cy - y) ** 2 >= (2 * outer + gap) ** 2
               for x, y in centers):
            centers.append((cx, cy))
    return centers


def _noise(rng, plane, sigma):
    return plane + rng.normal(0.0, sigma, plane.shape)


def paper_clean(rng):
    """1000x630, sigma 2: three ringed signs, about 6% non-background."""
    plane = _canvas(1000, 630)
    radius, ring = 45, 18
    signs = _place(rng, 3, 1000, 630, radius + ring, 8)
    for cx, cy in signs:
        _sign(plane, cx, cy, radius, ring)
    return chroma_to_rgb(_noise(rng, plane, 2.0)), signs


def clutter_p3(rng):
    """640x480, sigma 20: ten ringed signs among 410 small patches that
    cover about half the frame. Noise splits the patches into thousands
    of fragments; the red ones are large, the yellow ones mostly too
    small for the detector."""
    width, height = 640, 480
    plane = _canvas(width, height)
    for count, (lo, hi), color in ((160, (10, 30), RED), (250, (2, 8), YELLOW)):
        for _ in range(count):
            cx, cy = rng.integers(0, width), rng.integers(0, height)
            _disc(plane, int(cx), int(cy), int(rng.integers(lo, hi)), color)
    radius, ring = 16, 6
    signs = _place(rng, 10, width, height, radius + ring, 6)
    for cx, cy in signs:
        _sign(plane, cx, cy, radius, ring)
    return chroma_to_rgb(_noise(rng, plane, 20.0)), signs


def train_frame(rng):
    """96x96, sigma 4: one ringed sign, the trainer's input."""
    plane = _canvas(96, 96)
    cx, cy = 48 + int(rng.integers(-4, 5)), 48 + int(rng.integers(-4, 5))
    _sign(plane, cx, cy, 20, 8)
    return chroma_to_rgb(_noise(rng, plane, 4.0)), [(cx, cy)]


def encode_p6(rgb):
    h, w = rgb.shape[:2]
    return b"P6\n%d %d\n255\n" % (w, h) + rgb.tobytes()


_DECIMAL = [b"%d" % v for v in range(256)]


def encode_p3(rgb, per_line=15):
    """Plain-text PPM, `per_line` samples per line (5 pixels, under 70
    characters as netpbm writes it)."""
    h, w = rgb.shape[:2]
    tokens = [_DECIMAL[v] for v in rgb.reshape(-1).tolist()]
    lines = [b" ".join(tokens[i:i + per_line])
             for i in range(0, len(tokens), per_line)]
    return b"P3\n%d %d\n255\n" % (w, h) + b"\n".join(lines) + b"\n"


# name -> (scene function, encoder, distinct frames in the pool)
WORKLOADS = {
    "paper_clean": (paper_clean, encode_p6, 4),
    "clutter_p3": (clutter_p3, encode_p3, 4),
    "train_meanshift": (train_frame, encode_p6, 3),
}


def frames(workload, seed):
    """The workload's frame pool for `seed`: a list of (rgb, planted sign
    centers, encoded PPM bytes), generated in full before any timing."""
    scene, encode, count = WORKLOADS[workload]
    pool = []
    for index in range(count):
        rng = np.random.default_rng([seed, _STREAM[workload], index])
        rgb, signs = scene(rng)
        pool.append((rgb, signs, encode(rgb)))
    return pool
