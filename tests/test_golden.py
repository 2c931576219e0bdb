"""Golden FrameReport gate: fixed synthetic frames must reproduce the
committed report and artifact digests exactly.

The goldens in tests/golden/ were written by the line-buffered filters and
the per-pixel argmin classifier, so any optimization of a pipeline stage
has to reproduce their outputs bit for bit. Regenerate them only for an
intended change of output:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from signpipe.image import ImageClass, cbcr_to_rgb
from signpipe.pipeline import PipelineConfig, run_pipeline
from signpipe.synthetic import (BACKGROUND_CHROMA, RED_CHROMA, YELLOW_CHROMA,
                                add_chroma_noise, background_frame,
                                chroma_constant, disc_frame, paint_disc)

GOLDEN_DIR = Path(__file__).parent / "golden"


def multi_sign_frame():
    """Four yellow shapes of differing fate and a red patch, under noise.

    A ringed yellow disc and a yellow square pass the rule; a thin yellow
    bar fails the ratio test and a small yellow disc the area test.
    """
    frame = chroma_constant(240, 160, BACKGROUND_CHROMA)
    paint_disc(frame, 50, 50, 32, RED_CHROMA)
    paint_disc(frame, 50, 50, 24, YELLOW_CHROMA)
    frame.data[90:130, 150:190] = YELLOW_CHROMA
    frame.data[20:26, 120:220] = YELLOW_CHROMA
    paint_disc(frame, 60, 130, 6, YELLOW_CHROMA)
    frame.data[140:150, 200:230] = RED_CHROMA
    return cbcr_to_rgb(add_chroma_noise(frame, 5.0, seed=7))


FRAMES = {
    "disc_sigma6": lambda: disc_frame(sigma=6, seed=42),
    "multi_sign": multi_sign_frame,
    "background": background_frame,
}


def _digest(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def golden_record(name):
    """The frame's report and artifact digests; the uint8 class image is
    recorded as int32, the type the goldens were written in."""
    report, art = run_pipeline(PipelineConfig(), FRAMES[name](), name)
    assert isinstance(art.seg, ImageClass)
    seg = art.seg.data.astype(np.int32)
    return {
        "report": json.loads(json.dumps(report.to_dict())),
        "seg": {"dtype": str(seg.dtype), "shape": list(seg.shape),
                "sha256": _digest(seg)},
        "annotated": {"dtype": str(art.annotated.data.dtype),
                      "shape": list(art.annotated.data.shape),
                      "sha256": _digest(art.annotated.data)},
    }


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_frame_matches_golden(name):
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert golden_record(name) == golden


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for frame_name in sorted(FRAMES):
        path = GOLDEN_DIR / f"{frame_name}.json"
        path.write_text(json.dumps(golden_record(frame_name), indent=1) + "\n")
        print(f"wrote {path}")
