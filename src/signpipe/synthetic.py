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


def chroma_constant(width, height, chroma) -> ImageCbCr:
    data = np.empty((height, width, 2), dtype=np.uint8)
    data[:, :] = chroma
    return ImageCbCr(width, height, data)


def paint_disc(img: ImageCbCr, cx, cy, radius, chroma):
    yy, xx = np.mgrid[0:img.height, 0:img.width]
    mask = (xx - cx) ** 2 + (yy - cy) ** 2 <= radius ** 2
    img.data[mask] = chroma
    return img


def add_chroma_noise(img: ImageCbCr, sigma, seed) -> ImageCbCr:
    """Additive Gaussian noise per pixel and channel, rounded and clamped."""
    rng = np.random.default_rng(seed)
    noisy = img.data.astype(np.float64) + rng.normal(0, sigma, img.data.shape)
    noisy = np.clip(np.floor(noisy + 0.5), 0, 255).astype(np.uint8)
    return ImageCbCr(img.width, img.height, noisy)


def disc_frame(width=200, height=200, radius=30, ring=10,
               sigma=0.0, seed=0) -> ImageRGB:
    """A yellow disc ringed in red on a uniform background.

    The disc geometry gives area ~ pi * radius^2 and a near-square
    bounding box, so the default detection rule accepts exactly the disc.
    """
    if radius < 0 or ring < 0:
        raise ValueError(f"radius and ring must be >= 0, got {radius} "
                         f"and {ring}")
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    frame = chroma_constant(width, height, BACKGROUND_CHROMA)
    cx, cy = width // 2, height // 2
    paint_disc(frame, cx, cy, radius + ring, RED_CHROMA)
    paint_disc(frame, cx, cy, radius, YELLOW_CHROMA)
    if sigma > 0:
        frame = add_chroma_noise(frame, sigma, seed)
    return cbcr_to_rgb(frame)


def background_frame(width=200, height=200) -> ImageRGB:
    return cbcr_to_rgb(chroma_constant(width, height, BACKGROUND_CHROMA))
