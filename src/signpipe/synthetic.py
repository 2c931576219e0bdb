"""Synthetic test-frame generators for desk-scale experiments.

Frames are painted directly in chroma space at the default class centers,
`mdc.DEFAULT_CENTERS`, then converted to RGB at a fixed luma so they can
feed the full file-based pipeline. Chroma noise models camera sensor noise.
"""

import math

import numpy as np

from .image import ImageCbCr, ImageRGB, _finite, _int_in, cbcr_to_rgb
from .mdc import DEFAULT_CENTERS

# (Cb, Cr) of the default background, yellow and red_low classes
BACKGROUND_CHROMA, YELLOW_CHROMA, RED_CHROMA, _ = DEFAULT_CENTERS

MAX_SIDE = 4096  # largest frame side disc_frame paints


def chroma_constant(width, height, chroma) -> ImageCbCr:
    data = np.empty((height, width, 2), dtype=np.uint8)
    data[:, :] = chroma
    return ImageCbCr(data)


def paint_disc(img: ImageCbCr, cx, cy, radius, chroma):
    """Paint a filled disc, touching only its bounding box."""
    r = abs(radius)
    y0 = max(0, math.floor(cy - r))
    y1 = max(0, min(img.height, math.floor(cy + r) + 1))
    x0 = max(0, math.floor(cx - r))
    x1 = max(0, min(img.width, math.floor(cx + r) + 1))
    yy, xx = np.mgrid[y0:y1, x0:x1]
    mask = (xx - cx) ** 2 + (yy - cy) ** 2 <= radius ** 2
    img.data[y0:y1, x0:x1][mask] = chroma
    return img


def add_chroma_noise(img: ImageCbCr, sigma, seed) -> ImageCbCr:
    """Additive Gaussian noise per pixel and channel, rounded and clamped."""
    noisy = np.random.default_rng(seed).normal(0, sigma, img.data.shape)
    noisy += img.data    # the same float64 sums as frame + noise
    noisy += 0.5
    np.floor(noisy, out=noisy)
    np.clip(noisy, 0, 255, out=noisy)
    return ImageCbCr(noisy.astype(np.uint8))


def disc_frame(width=200, height=200, radius=30, ring=10,
               sigma=0.0, seed=0) -> ImageRGB:
    """A yellow disc ringed in red on a uniform background.

    The disc geometry gives area ~ pi * radius^2 and a near-square
    bounding box, so the default detection rule accepts exactly the disc.
    """
    _int_in("width", width, 1, MAX_SIDE)
    _int_in("height", height, 1, MAX_SIDE)
    _int_in("radius", radius, 0)
    _int_in("ring", ring, 0)
    _finite("sigma", sigma, ">=")
    _int_in("seed", seed, 0)
    frame = chroma_constant(width, height, BACKGROUND_CHROMA)
    cx, cy = width // 2, height // 2
    paint_disc(frame, cx, cy, radius + ring, RED_CHROMA)
    paint_disc(frame, cx, cy, radius, YELLOW_CHROMA)
    if sigma > 0:
        frame = add_chroma_noise(frame, sigma, seed)
    return cbcr_to_rgb(frame)
