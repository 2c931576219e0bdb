"""Synthetic test-frame generators for desk-scale experiments.

Frames are painted directly in chroma space at the default class-center
colors, then converted to RGB at a fixed luma so they can feed the full
file-based pipeline. Chroma noise models camera sensor noise.
"""

import math

import numpy as np

from .image import ImageCbCr, ImageRGB, cbcr_to_rgb

# chroma of the default classes (Cb, Cr)
BACKGROUND_CHROMA = (127, 128)
YELLOW_CHROMA = (88, 151)
RED_CHROMA = (116, 157)

MAX_SIDE = 4096  # largest frame side disc_frame paints


def chroma_constant(width, height, chroma) -> ImageCbCr:
    data = np.empty((height, width, 2), dtype=np.uint8)
    data[:, :] = chroma
    return ImageCbCr(width, height, data)


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
    return ImageCbCr(img.width, img.height, noisy.astype(np.uint8))


def disc_frame(width=200, height=200, radius=30, ring=10,
               sigma=0.0, seed=0) -> ImageRGB:
    """A yellow disc ringed in red on a uniform background.

    The disc geometry gives area ~ pi * radius^2 and a near-square
    bounding box, so the default detection rule accepts exactly the disc.
    """
    if max(width, height) > MAX_SIDE:
        raise ValueError(f"sides must be <= {MAX_SIDE}, got {width}x{height}")
    if radius < 0 or ring < 0:
        raise ValueError(f"radius and ring must be >= 0, got {radius} "
                         f"and {ring}")
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    frame = chroma_constant(width, height, BACKGROUND_CHROMA)
    cx, cy = width // 2, height // 2
    paint_disc(frame, cx, cy, radius + ring, RED_CHROMA)
    paint_disc(frame, cx, cy, radius, YELLOW_CHROMA)
    if sigma > 0:
        frame = add_chroma_noise(frame, sigma, seed)
    return cbcr_to_rgb(frame)


def background_frame(width=200, height=200) -> ImageRGB:
    return cbcr_to_rgb(chroma_constant(width, height, BACKGROUND_CHROMA))
