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
from .mdc import (PipelineModel, centers_from_json, estimate_frame_rate,
                  load_centers)
from .pipeline import (DEFAULT_CLOCK_MHZ, PipelineConfig, ablation_stats,
                       default_centers, render_labels, run_pipeline,
                       verify_frame)
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
    p.add_argument("--skip-class", type=int, action="append", default=None,
                   metavar="IDX", help="class index to exclude from labeling "
                   "(repeatable; default: 0)")
    p.add_argument("--area-min", type=int, default=200)
    p.add_argument("--ratio-min", default="0.7")
    p.add_argument("--ratio-max", default="3")
    p.add_argument("--target-class", type=int, default=1)
    p.add_argument("--clock-mhz", type=float, default=DEFAULT_CLOCK_MHZ)


def _add_output_args(p):
    p.add_argument("--out-seg", help="write the label image here (PPM)")
    p.add_argument("--out-annotated", help="write the annotated frame here (PPM)")
    p.add_argument("--out-report", help="write the JSON report here")
    p.add_argument("--color-labels", action="store_true",
                   help="render labels with a color palette instead of grays")


def _config_from(args):
    centers = load_centers(args.centers) if args.centers else default_centers()
    skip = frozenset(args.skip_class if args.skip_class is not None else {0})
    for flag, idx in ([("--skip-class", i) for i in sorted(skip)]
                      + [("--target-class", args.target_class)]):
        if not 0 <= idx < centers.num_classes:
            raise ValueError(f"{flag} {idx} is not a class index in "
                             f"[0, {centers.num_classes})")
    rule = DetectionRule(args.target_class, args.ratio_min, args.ratio_max,
                         args.area_min)
    return PipelineConfig(centers, not args.no_gaussian, not args.no_median,
                          skip, rule, args.clock_mhz)


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
    config = MeanShiftConfig(bandwidth=args.bandwidth,
                             seed_stride=args.seed_stride)
    result = mean_shift(samples, config)
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
    frame = disc_frame(args.width, args.height, args.radius, args.ring,
                       sigma=args.sigma, seed=args.seed)
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
    p.add_argument("--bandwidth", type=float, default=0.4)
    p.add_argument("--seed-stride", type=int, default=4)
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
    p.add_argument("--width", type=int, default=200)
    p.add_argument("--height", type=int, default=200)
    p.add_argument("--radius", type=int, default=30)
    p.add_argument("--ring", type=int, default=10)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_synth)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:
        # bad flag values, files, frames or center JSON: one line, exit 1
        raise SystemExit(f"signpipe: {exc}")


if __name__ == "__main__":
    sys.exit(main())
