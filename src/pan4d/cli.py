"""Command-line interface: run, evaluate, synth, check-gradients, inspect.

Every subcommand is deterministic given its config file and seed. The
`run` parameter flags are generated from config.RUN_PARAMS and override the
config file's keys of the same name; argparse leaves their values as text, so
a bad value from a flag or from the file fails alike with exit code 1, as
does a usage error. Exit codes: 0 ok, 1 validation failure, 2 io error,
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import yaml

from . import kitti_io
from .clustering import read_cluster_fields
from .config import (RUN_PARAMS, eval_config_from_dict, load_yaml, run_config_from_sources,
                     sequence_names)
from .errors import FormatError, Pan4DError, ValidationError
from .losses import check_gradients
from .metrics import evaluate, lstq
from .synth import class_map_for, generate_sequence, scene_spec_from_dict, write_sequence
from .tracking import run_online_pipeline


STAGED = ".part"  # a label file's suffix until the whole run has succeeded


def _seq_path(root, seq, *parts):
    """root/seq/parts..., or root/parts... for the unnamed sequence ""."""
    return os.path.join(root, *([seq] if seq else []), *parts)


def _run_one_sequence(seq_name, seq_dir, out_root, cfg, seq_seed, created):
    """Run one sequence, writing each scan's labels as soon as they are final,
    under its staged name (label path + STAGED). The predictions/ directory,
    if it makes it, and every staged file it writes are added to created, in
    order."""
    seq = kitti_io.load_sequence(seq_dir)
    if not seq.has_fields:
        raise FormatError(f"{seq_dir}: no fields/ sidecar directory; cmd_run needs "
                          "per-scan embeddings (see the P4DE format)")
    if not seq.has_labels:
        raise FormatError(f"{seq_dir}: no labels/ directory to source semantic "
                          "predictions from")

    def fields_fn(i):
        return read_cluster_fields(seq.fields_path(i))

    def semantics_fn(i):
        return seq.labels(i).semantic

    pred_dir = _seq_path(out_root, seq_name, "predictions")

    def write(t, labels):
        if not os.path.isdir(pred_dir):
            os.makedirs(pred_dir, exist_ok=True)
            created.append(pred_dir)
        path = os.path.join(pred_dir, f"{t:06d}.label{STAGED}")
        created.append(path)  # before the write, so a partial file is removed too
        kitti_io.write_labels(labels, path)

    eval_cfg = cfg.eval_config
    result = run_online_pipeline(
        seq,
        fields_fn,
        semantics_fn,
        cfg.volume,
        cfg.cluster,
        thing_classes=eval_cfg.things,
        stuff_classes=eval_cfg.stuff,
        seed=seq_seed,
        assoc_iou=cfg.assoc_iou,
        window_stride=cfg.window_stride,
        emit=write,
    )
    return seq_name, result.stats, pred_dir


def cmd_run(args) -> int:
    file_data = load_yaml(args.config) if args.config else {}
    keys = (*RUN_PARAMS, "data_dir", "out_dir", "sequences")
    cfg = run_config_from_sources(file_data, {k: getattr(args, k) for k in keys})

    jobs = [(s, _seq_path(cfg.data_dir, s)) for s in cfg.sequences or [""]]
    seeds = {name: [cfg.seed, k] for k, (name, _) in enumerate(sorted(jobs))}

    created = []  # predictions/ directories and staged label files this run made, in order

    def work(job):
        name, seq_dir = job
        return _run_one_sequence(name, seq_dir, cfg.out_dir, cfg, seeds[name], created)

    try:
        if cfg.threads > 1 and len(jobs) > 1:
            with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
                results = list(pool.map(work, jobs))
        else:
            results = [work(j) for j in jobs]
        for path in created:  # every sequence succeeded: publish the labels
            if path.endswith(STAGED):
                os.replace(path, path[:-len(STAGED)])
    except BaseException:
        # a failed run leaves none of its output, and the label files of an
        # earlier run as they were: the pool has finished every job, so
        # nothing is written after this
        for path in reversed(created):
            with contextlib.suppress(OSError):
                (os.rmdir if os.path.isdir(path) else os.unlink)(path)
        raise

    for name, stats, pred_dir in results:
        label = name or os.path.basename(os.path.normpath(cfg.data_dir))
        print(
            f"sequence {label}: {stats['scans']} scans, "
            f"peak volume {stats['peak_volume_points']} points, "
            f"{stats['seconds']:.2f}s -> {pred_dir}"
        )
    return 0


def _pred_dir_for(pred_root, seq):
    base = _seq_path(pred_root, seq)
    for sub in ("predictions", "labels"):
        cand = os.path.join(base, sub)
        if os.path.isdir(cand):
            return cand
    raise FormatError(f"{base}: no predictions/ or labels/ directory")


def cmd_evaluate(args) -> int:
    if args.combine is not None:
        for name, score in zip(("S_ASSOC", "S_CLS"), args.combine):
            if not 0.0 <= score <= 1.0:  # also false for nan
                raise ValidationError(f"--combine {name} must be a score in [0, 1], got {score}")
        a, b = args.combine
        print(f"{lstq(a, b):.4f}")
        return 0
    if not (args.gt and args.pred and args.config and args.report):
        raise ValidationError("cmd_evaluate needs --gt, --pred, --config and --report")
    cfg = eval_config_from_dict(load_yaml(args.config))
    sequences = sequence_names("sequences", args.sequences) or [""]

    gt_streams, pred_streams = {}, {}
    for seq in sequences:
        gt_dir = _seq_path(args.gt, seq, "labels")
        if not os.path.isdir(gt_dir):
            raise FormatError(f"{gt_dir}: missing ground-truth labels directory")
        pred_dir = _pred_dir_for(args.pred, seq)
        gt_files = kitti_io.listdir_sorted(gt_dir, ".label")
        pred_files = kitti_io.listdir_sorted(pred_dir, ".label")
        if [os.path.basename(p) for p in gt_files] != [os.path.basename(p) for p in pred_files]:
            raise FormatError(
                f"sequence {seq or '.'}: gt and pred label file sets differ"
            )
        gt_streams[seq] = map(kitti_io.read_labels, gt_files)
        pred_streams[seq] = map(kitti_io.read_labels, pred_files)

    report = evaluate(gt_streams, pred_streams, cfg)
    report.write_text(args.report)
    json_path = os.path.splitext(args.report)[0] + ".json"
    report.write_json(json_path)
    print(f"LSTQ {report.lstq:.4f}  S_assoc {report.s_assoc:.4f}  S_cls {report.s_cls:.4f}")
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(args.report)
    print(json_path)
    return 0


def cmd_synth(args) -> int:
    spec, name = scene_spec_from_dict(load_yaml(args.spec))
    data = generate_sequence(spec)
    seq_dir = os.path.join(args.out, name)
    write_sequence(data, seq_dir)
    classes_path = os.path.join(args.out, "classes.yaml")
    with open(classes_path, "w") as f:
        yaml.safe_dump(class_map_for(spec), f)
    print(f"wrote {len(data.scans)} scans to {seq_dir}")
    print(classes_path)
    return 0


def cmd_check_gradients(args) -> int:
    rows, ok = check_gradients(seed=args.seed, trials=args.trials)
    width = max(len(r["loss"]) for r in rows)
    for r in rows:
        status = "PASS" if r["ok"] else "FAIL"
        print(f"{r['loss']:<{width}}  max_rel_err={r['max_rel_err']:.3e}  {status}")
    return 0 if ok else 3


def _histogram(values):
    uniq, counts = np.unique(values, return_counts=True)
    return ", ".join(f"{int(u)}:{int(c)}" for u, c in zip(uniq, counts))


def cmd_inspect(args) -> int:
    path = args.path
    if os.path.isdir(path):
        seq = kitti_io.load_sequence(path)
        print(f"sequence {path}: {len(seq)} scans, labels={seq.has_labels}, "
              f"fields={seq.has_fields}")
        for i in range(min(len(seq), 3)):
            print(f"  scan {i}: {seq.scan_size(i)} points")
        return 0
    if path.endswith(".bin"):
        scan = kitti_io.read_point_scan(path)
        pts = scan.points
        print(f"{path}: {len(scan)} points")
        if len(scan):
            lo, hi = pts.min(axis=0), pts.max(axis=0)
            print(f"  x [{lo[0]:.2f}, {hi[0]:.2f}]  y [{lo[1]:.2f}, {hi[1]:.2f}]  "
                  f"z [{lo[2]:.2f}, {hi[2]:.2f}]")
            print(f"  remission [{scan.remission.min():.3f}, {scan.remission.max():.3f}]")
        return 0
    if path.endswith(".label"):
        labels = kitti_io.read_labels(path)
        print(f"{path}: {len(labels)} points")
        print(f"  classes: {_histogram(labels.semantic)}")
        print(f"  instances: {_histogram(labels.instance)}")
        return 0
    if path.endswith(".p4de"):
        cf = read_cluster_fields(path)
        print(f"{path}: {len(cf)} points, embedding dim {cf.embeddings.shape[1]}")
        print(f"  objectness [{cf.objectness.min():.3f}, {cf.objectness.max():.3f}]")
        print(f"  variance [{cf.variances.min():.3f}, {cf.variances.max():.3f}]")
        return 0
    raise ValidationError(f"don't know how to inspect {path!r}")


class _Parser(argparse.ArgumentParser):
    """A usage error is a validation failure: exit code 1, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pan4d",
        description="4D panoptic LiDAR segmentation pipeline and evaluation suite",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run the online pipeline over sequences")
    p.add_argument("--data", dest="data_dir",
                   help="dataset root (sequence dir, or parent of sequences)")
    p.add_argument("--out", dest="out_dir", help="output root for prediction label files")
    p.add_argument("--sequences", help="comma-separated sequence names")
    p.add_argument("--config", help="YAML config file (flags override it)")
    for f in RUN_PARAMS.values():  # no type or choices: coerce() and the config records check
        store = {"action": "store_true"} if f.type == "bool" else {}
        p.add_argument("--" + f.name.replace("_", "-"), dest=f.name, default=None,
                       help=f"{f.metadata['help']} (default {f.default})", **store)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("evaluate", help="score predictions against ground truth")
    p.add_argument("--gt", help="ground-truth root (<seq>/labels/*.label)")
    p.add_argument("--pred", help="prediction root (<seq>/predictions/*.label)")
    p.add_argument("--sequences", help="comma-separated sequence names")
    p.add_argument("--config", help="YAML class map (classes/things/ignore)")
    p.add_argument("--report", help="report path; a .json twin is written beside it")
    p.add_argument("--combine", nargs=2, type=float, metavar=("S_ASSOC", "S_CLS"),
                   help="just print the geometric mean of two scores")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="generate a synthetic labeled sequence")
    p.add_argument("--spec", required=True, help="YAML scene spec")
    p.add_argument("--out", required=True, help="output dataset root")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("check-gradients", help="verify analytic loss gradients")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(func=cmd_check_gradients)

    p = sub.add_parser("inspect", help="dump counts/histograms of a data file")
    p.add_argument("path")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FormatError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except Pan4DError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
