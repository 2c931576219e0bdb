"""Command-line front end for the detection pipeline.

Subcommands:
  detect   run the full chain; print class counts, components and
           detections, and write the label image, annotated frame or report
  train    mean-shift a frame's chroma samples into a center file
  latency  print the classifier latency formula and estimated FPS
  verify   cross-check each stage of a frame against its reference
  synth    write a synthetic disc test frame
"""

import argparse
import json
import sys
from pathlib import Path

from .detector import DetectionRule
from .image import _quote, load_pnm, rgb_to_cbcr, save_pnm
from .mdc import (ClassCenterFile, PipelineModel, centers_from_json,
                  centers_to_json, estimate_frame_rate)
from .pipeline import (DEFAULT_CLOCK_MHZ, PipelineConfig, render_labels,
                       run_pipeline, verify_frame)
from .synthetic import disc_frame
from .trainer import MeanShiftConfig, mean_shift


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise SystemExit(f"signpipe: {message}")


def _number(kind):
    """An argparse type whose error quotes at most 20 bytes of the token."""
    def parse(text):
        try:
            if kind is int and sum(map(str.isdigit, text)) > 20:
                raise ValueError  # more than any flag needs; errors echo it
            return kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: "
                f"{_quote(text, token=True)}") from None
    return parse


def _add_config_args(p):
    p.add_argument("image", help="input PPM (P3/P6) frame")
    p.add_argument("--centers", help="class-center JSON file (default: shipped "
                   "background/yellow/red centers)")
    p.add_argument("--no-gaussian", action="store_true",
                   help="skip the pre-classifier smoothing filter")
    p.add_argument("--no-median", action="store_true",
                   help="skip the post-classifier median filter")
    p.add_argument("--skip-class", type=_number(int), action="append",
                   dest="skip_classes", metavar="IDX",
                   help="class index to exclude from labeling (repeatable)")


def _given(args, *names):
    """The named flags that were given; the library defaults the rest."""
    return {n: v for n in names if (v := getattr(args, n, None)) is not None}


_RULE_FLAGS = ["area_min", "ratio_min", "ratio_max", "target_class"]
# the output that reads each flag whose effect `detect` does not print
_NEEDS = {"color_labels": "out_seg", "clock_mhz": "out_report"}


def _config_from(args):
    given = _given(args, "skip_classes", "clock_mhz")
    if args.centers:
        given["centers"] = centers_from_json(
            Path(args.centers).read_text(encoding="utf-8"))
    rule = DetectionRule(**_given(args, *_RULE_FLAGS))
    return PipelineConfig(gaussian=not args.no_gaussian,
                          median=not args.no_median, rule=rule, **given)


def _load_frame(path):
    try:
        return load_pnm(Path(path).read_bytes())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def cmd_detect(args):
    config = _config_from(args)
    for flag, output in _NEEDS.items():
        if getattr(args, flag) is not None and not getattr(args, output):
            raise ValueError(f"--{flag} needs --{output}".replace("_", "-"))
    if (target := config.rule.target_class) in config.skip_classes:
        raise ValueError(f"target class {target} is skipped, so detect can "
                         "find nothing")
    report, artifacts = run_pipeline(config, _load_frame(args.image), args.image)
    if args.out_seg:
        Path(args.out_seg).write_bytes(save_pnm(render_labels(
            artifacts.seg, config.centers.num_classes, color=args.color_labels)))
    if args.out_annotated:
        Path(args.out_annotated).write_bytes(save_pnm(artifacts.annotated))
    if args.out_report:
        Path(args.out_report).write_text(
            json.dumps(report.to_dict(), indent=2) + "\n")
    for i, n in enumerate(report.class_pixels):
        print(f"class {i}: {n} pixels")
    print(f"components: {len(report.components)}")
    print(f"detections: {len(report.detections)}")
    for d in report.detections:
        print(f"  component {d.id}: bbox={d.bbox} area={d.area} "
              f"centroid=({d.centroid[0]:.1f}, {d.centroid[1]:.1f})")
    return 0


def cmd_train(args):
    samples = rgb_to_cbcr(_load_frame(args.image)).data.reshape(-1, 2)
    result = mean_shift(samples, MeanShiftConfig(
        **_given(args, "bandwidth", "seed_stride")))
    text = centers_to_json(ClassCenterFile.from_centers(
        result.modes, names=args.names.split(",") if args.names else None))
    if args.out_centers:
        Path(args.out_centers).write_text(text)
    else:
        sys.stdout.write(text)
    for mode, sup in zip(result.modes, result.support):
        print(f"mode {mode} support {sup}", file=sys.stderr)
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
    for stage, match in results.items():
        print(f"{stage}: {'ok' if match else 'MISMATCH'}")
    return 0 if all(results.values()) else 1


def cmd_synth(args):
    frame = disc_frame(**_given(args, "width", "height", "radius", "ring",
                                "sigma", "seed"))
    Path(args.out).write_bytes(save_pnm(frame))
    return 0


def main(argv=None):
    parser = _Parser(prog="signpipe", description="Streaming road-sign "
                     "detection pipeline model")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="full detection chain")
    _add_config_args(p)
    p.add_argument("--area-min", type=_number(int))
    p.add_argument("--ratio-min")
    p.add_argument("--ratio-max")
    p.add_argument("--target-class", type=_number(int))
    p.add_argument("--clock-mhz", type=_number(float))
    p.add_argument("--out-seg", help="write the label image here (PPM)")
    p.add_argument("--out-annotated", help="write the annotated frame here (PPM)")
    p.add_argument("--out-report", help="write the JSON report here")
    p.add_argument("--color-labels", action="store_true", default=None,
                   help="render labels with a color palette instead of grays")
    p.set_defaults(fn=cmd_detect)

    p = sub.add_parser("verify", help="oracle cross-check")
    _add_config_args(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("train", help="mean-shift class centers from a frame")
    p.add_argument("image")
    p.add_argument("--bandwidth", type=_number(float))
    p.add_argument("--seed-stride", type=_number(int))
    p.add_argument("--names", help="comma-separated class names")
    p.add_argument("--out-centers", help="write the center JSON here")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("latency", help="latency formula and FPS estimate")
    p.add_argument("--dims", type=_number(int), default=2)
    p.add_argument("--classes", type=_number(int), default=4)
    p.add_argument("--clock-mhz", type=_number(float), default=DEFAULT_CLOCK_MHZ)
    p.add_argument("--width", type=_number(int), default=1000)
    p.add_argument("--height", type=_number(int), default=630)
    p.set_defaults(fn=cmd_latency)

    p = sub.add_parser("synth", help="write a synthetic disc test frame")
    p.add_argument("out")
    for flag in ("--width", "--height", "--radius", "--ring", "--seed"):
        p.add_argument(flag, type=_number(int))
    p.add_argument("--sigma", type=_number(float))
    p.set_defaults(fn=cmd_synth)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:
        # bad flag values, files, frames or center JSON: one line, exit 1
        raise SystemExit(f"signpipe: {exc}")


if __name__ == "__main__":
    sys.exit(main())
