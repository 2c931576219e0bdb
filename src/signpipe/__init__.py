"""Software model of a streaming road-sign detection pipeline."""

from .ccl import ComponentFeatures, label_components
from .detector import DetectionRule, annotate, detect
from .filters import gaussian3x3, median3x3, stream_window
from .image import (ImageCbCr, ImageClass, ImageGray, ImageRGB, PnmError,
                    cbcr_to_rgb, load_pnm, rgb_to_cbcr, save_pnm)
from .mdc import (ClassCenterFile, PipelineModel, classify, classify_image,
                  estimate_frame_rate, program_center, simulate_pipeline)
from .pipeline import (FrameReport, PipelineConfig, ablation_stats,
                       default_centers, run_pipeline, verify_frame)
from .trainer import ClusterResult, MeanShiftConfig, centers_to_file, mean_shift

__version__ = "0.1.0"
