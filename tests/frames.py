"""Frames that only the tests use, built from the generators in
`signpipe.synthetic`."""

from signpipe.image import ImageRGB, cbcr_to_rgb
from signpipe.synthetic import BACKGROUND_CHROMA, chroma_constant


def background_frame(width=200, height=200) -> ImageRGB:
    """A frame of the default background chroma and nothing else."""
    return cbcr_to_rgb(chroma_constant(width, height, BACKGROUND_CHROMA))
