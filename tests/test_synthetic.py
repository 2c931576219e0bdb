import tracemalloc

from signpipe.synthetic import disc_frame


def test_noisy_frame_peak_memory_per_pixel():
    # the float64 noise draw, 16 bytes a pixel, is the one full-frame
    # float plane; the chroma and RGB planes are uint8
    disc_frame(8, 8, 2, 1, sigma=6)  # build the cached color table first
    tracemalloc.start()
    try:
        disc_frame(512, 512, sigma=6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 512 * 512
