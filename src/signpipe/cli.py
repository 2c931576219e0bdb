"""Command-line front end for the detection pipeline.

Subcommands:
  segment  classify a frame and write the label image
  detect   run the full chain and write detections + annotated frame
  train    mean-shift a frame's chroma samples into a center file
  ablate   component counts with no filters against the configured ones
  latency  print the classifier latency formula and estimated FPS
  verify   cross-check each stage of a frame against its reference
"""

import argparse
import json
import sys
from pathlib import Path

from .detector import DetectionRule
from .image import load_pnm, rgb_to_cbcr, save_pnm
from .mdc import PipelineModel, centers_from_json, estimate_frame_rate
from .pipeline import (DEFAULT_CLOCK_MHZ, PipelineConfig, ablation_stats,
                       render_labels, run_pipeline, verify_frame)
from .synthetic import disc_frame
from .trainer import MeanShiftConfig, centers_to_file, mean_shift


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise SystemExit(f"signpipe: {message}")


def _add_config_args(p):
    p.add_argument("image", help="input PPM (P3/P6) frame")
    p.add_argument("--centers", help="class-center JSON file (default: shipped "
                   "background/yellow/red centers)")
    p.add_argument("--no-gaussian", action="store_true",
                   help="skip the pre-classifier smoothing filter")
    p.add_argument("--no-median", action="store_true",
                   help="skip the post-classifier median filter")
    p.add_argument("--skip-class", type=int, action="append",
                   dest="skip_classes", metavar="IDX",
                   help="class index to exclude from labeling (repeatable)")
    p.add_argument("--area-min", type=int)
    p.add_argument("--ratio-min")
    p.add_argument("--ratio-max")
    p.add_argument("--target-class", type=int)
    p.add_argument("--clock-mhz", type=float)


def _add_output_args(p):
    p.add_argument("--out-seg", help="write the label image here (PPM)")
    p.add_argument("--out-annotated", help="write the annotated frame here (PPM)")
    p.add_argument("--out-report", help="write the JSON report here")
    p.add_argument("--color-labels", action="store_true",
                   help="render labels with a color palette instead of grays")


def _given(args, *names):
    """The named flags that were given; the library defaults the rest."""
    return {n: getattr(args, n) for n in names if getattr(args, n) is not None}


def _config_from(args):
    given = _given(args, "skip_classes", "clock_mhz")
    if args.centers:
        given["centers"] = centers_from_json(
            Path(args.centers).read_text(encoding="utf-8"))
    rule = DetectionRule(**_given(args, "target_class", "ratio_min",
                                  "ratio_max", "area_min"))
    return PipelineConfig(gaussian=not args.no_gaussian,
                          median=not args.no_median, rule=rule, **given)


def _load_frame(path):
    try:
        return load_pnm(Path(path).read_bytes())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _run_frame(args):
    """Run the chain on `args.image`; write the outputs asked for."""
    config = _config_from(args)
    report, artifacts = run_pipeline(config, _load_frame(args.image), args.image)
    if args.out_seg:
        Path(args.out_seg).write_bytes(save_pnm(render_labels(
            artifacts.seg, config.centers.num_classes, color=args.color_labels)))
    if args.out_annotated:
        Path(args.out_annotated).write_bytes(save_pnm(artifacts.annotated))
    if args.out_report:
        Path(args.out_report).write_text(
            json.dumps(report.to_dict(), indent=2) + "\n")
    return report


def cmd_segment(args):
    report = _run_frame(args)
    for i, n in enumerate(report.class_pixels):
        print(f"class {i}: {n} pixels")
    print(f"components: {len(report.components)}")
    return 0


def cmd_detect(args):
    report = _run_frame(args)
    print(f"components: {len(report.components)}")
    print(f"detections: {len(report.detections)}")
    for d in report.detections:
        print(f"  component {d.component_id}: bbox={d.bbox} area={d.area} "
              f"centroid=({d.centroid[0]:.1f}, {d.centroid[1]:.1f})")
    return 0


def cmd_train(args):
    rgb = _load_frame(args.image)
    chroma = rgb_to_cbcr(rgb)
    samples = chroma.data.reshape(-1, 2)
    result = mean_shift(samples, MeanShiftConfig(
        **_given(args, "bandwidth", "seed_stride")))
    names = (args.names.split(",") if args.names
             else [f"class{i}" for i in range(len(result.modes))])
    text = centers_to_file(result, names)
    centers_from_json(text)  # refuse a file `detect` would refuse
    if args.out_centers:
        Path(args.out_centers).write_text(text)
    else:
        sys.stdout.write(text)
    for mode, sup in zip(result.modes, result.support):
        print(f"mode {mode} support {sup}", file=sys.stderr)
    return 0


def cmd_ablate(args):
    config = _config_from(args)
    without, with_, reduction = ablation_stats(config, _load_frame(args.image))
    print(f"components without filters: {without}")
    print(f"components with filters:    {with_}")
    print(f"reduction: {reduction:.1f}%")
    return 0


def cmd_latency(args):
    model = PipelineModel(args.dims, args.classes)
    fps = estimate_frame_rate(args.clock_mhz * 1e6, args.width, args.height)
    print(f"latency: {model.latency} cycles "
          f"(3*{args.dims} + ceil(log2 {args.classes}))")
    print(f"throughput: 1 label/cycle at steady state")
    print(f"estimated frame rate at {args.clock_mhz:g} MHz, "
          f"{args.width}x{args.height}: {fps:.2f} FPS")
    return 0


def cmd_verify(args):
    results = verify_frame(_config_from(args), _load_frame(args.image))
    ok = True
    for stage, match in results.items():
        print(f"{stage}: {'ok' if match else 'MISMATCH'}")
        ok = ok and match
    return 0 if ok else 1


def cmd_synth(args):
    frame = disc_frame(**_given(args, "width", "height", "radius", "ring",
                                "sigma", "seed"))
    Path(args.out).write_bytes(save_pnm(frame))
    return 0


def main(argv=None):
    parser = _Parser(prog="signpipe", description="Streaming road-sign "
                     "detection pipeline model")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, doc in [("segment", cmd_segment, "classify a frame"),
                          ("detect", cmd_detect, "full detection chain"),
                          ("ablate", cmd_ablate, "filter ablation counts"),
                          ("verify", cmd_verify, "oracle cross-check")]:
        p = sub.add_parser(name, help=doc)
        _add_config_args(p)
        if fn in (cmd_segment, cmd_detect):
            _add_output_args(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("train", help="mean-shift class centers from a frame")
    p.add_argument("image")
    p.add_argument("--bandwidth", type=float)
    p.add_argument("--seed-stride", type=int)
    p.add_argument("--names", help="comma-separated class names")
    p.add_argument("--out-centers", help="write the center JSON here")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("latency", help="latency formula and FPS estimate")
    p.add_argument("--dims", type=int, default=2)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--clock-mhz", type=float, default=DEFAULT_CLOCK_MHZ)
    p.add_argument("--width", type=int, default=1000)
    p.add_argument("--height", type=int, default=630)
    p.set_defaults(fn=cmd_latency)

    p = sub.add_parser("synth", help="write a synthetic disc test frame")
    p.add_argument("out")
    for flag in ("--width", "--height", "--radius", "--ring", "--seed"):
        p.add_argument(flag, type=int)
    p.add_argument("--sigma", type=float)
    p.set_defaults(fn=cmd_synth)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:
        # bad flag values, files, frames or center JSON: one line, exit 1
        raise SystemExit(f"signpipe: {exc}")


if __name__ == "__main__":
    sys.exit(main())
