"""Command-line front end.

Subcommands:

    build      write a seeded random-weight bundle and print its structure
    quantize   turn raw float32 weight files into a runnable bundle
    infer      run a bundle on an input tensor (reference or simulator engine)
    simulate   run the pipeline engine and print per-invocation statistics
    report     roofline, batch sweep, and block ablation from the cost model
    validate   load a bundle, verifying checksums and rebuilding its tables

Exit status: 0 on success, 1 on any validation or model error, 2 on I/O
failures and on command-line usage errors (argparse's own exit status).
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .accel.fifo import SCHEDULERS
from .accel.perf import CostModelParams, build_report, load_cost_config
from .accel.subgraph import SimulatorExecutor
from .bundle import (
    load_bundle,
    quantize_bundle,
    random_bundle,
    read_float_weights,
    save_bundle,
)
from .errors import DiracDeltaError, ValidationError
from .net import build_diracdeltanet, count_params_macs, forward
from .quant import NetworkQuantParams
from .tensor import FeatureMap, read_tensor_blob


def _parse_batches(text: str) -> tuple:
    try:
        return tuple(int(b) for b in text.split(","))
    except ValueError:
        raise ValidationError(f"--batch wants comma-separated integers, got {text!r}") from None


def _load_input(args: argparse.Namespace, spec) -> FeatureMap:
    if args.input is not None:
        return read_tensor_blob(args.input)
    rng = np.random.default_rng(args.seed)
    size = (spec.input_size, spec.input_size, spec.input_channels)
    return FeatureMap.from_array(rng.integers(0, 16, size=size, dtype=np.uint8))


def _print_structure(spec) -> None:
    counts = count_params_macs(spec)
    print(f"conv layers: {len(counts.layers) - 1}, plus the classifier")
    print(f"first stage params {counts.stem_params}, macs {counts.stem_macs}")
    print(f"total params {counts.total_params}, macs {counts.total_macs}")


def cmd_build(args: argparse.Namespace) -> int:
    spec = build_diracdeltanet()
    net = NetworkQuantParams(s=args.s)
    bundle = random_bundle(spec, net, args.seed)
    path = save_bundle(bundle, args.out)
    print(f"bundle written to {path}")
    _print_structure(spec)
    print(f"quant {net.tag}, s={net.s}, seed {args.seed}")
    return 0


def cmd_quantize(args: argparse.Namespace) -> int:
    spec = build_diracdeltanet()
    net = NetworkQuantParams(s=args.s)
    floats = read_float_weights(args.weights, spec)
    bundle = quantize_bundle(spec, net, floats)
    path = save_bundle(bundle, args.out)
    print(f"bundle written to {path}")
    print(f"quantized as {net.tag}, s={args.s}")
    return 0


def cmd_infer(args: argparse.Namespace) -> int:
    bundle = load_bundle(args.bundle)
    fm = _load_input(args, bundle.spec)
    executor = None
    if args.engine == "simulator":
        executor = SimulatorExecutor(scheduler=args.scheduler)
    result = forward(bundle, fm, executor=executor)
    if args.out is not None:
        args.out.write_bytes(result.logits.astype("<f8").tobytes())
        print(f"logits written to {args.out}")
    top = result.class_index
    print(f"class {top} logit {result.logits[top]:.6f} ({args.engine} engine)")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    bundle = load_bundle(args.bundle)
    fm = _load_input(args, bundle.spec)
    sim = SimulatorExecutor(scheduler=args.scheduler)
    result = forward(bundle, fm, executor=sim)
    lines = [
        f"{'step':16s} {'dram R':>9s} {'dram W':>9s} {'weights':>8s} "
        f"{'copy':>6s} {'|acc|':>6s} {'pool':>4s} {'shift':>5s} {'fifo':>4s}"
    ]
    for name, st in sim.log:
        depth = max(st.fifo_depths.values()) if st.fifo_depths else 0
        lines.append(
            f"{name:16s} {st.dram_read_bytes:9d} {st.dram_write_bytes:9d} "
            f"{st.weight_bytes:8d} {st.memcpy_bytes:6d} {st.max_abs_acc:6d} "
            f"{st.pool_occupancy:4d} {st.shift_occupancy:5d} {depth:4d}"
        )
    table = "\n".join(lines) + "\n"
    if args.out is not None:
        args.out.write_text(table)
        print(f"stats written to {args.out}")
    else:
        print(table, end="")
    peak = max(st.max_abs_acc for _, st in sim.log)
    print(f"peak |accumulator| {peak}")
    print(f"class {result.class_index} ({args.scheduler} scheduler)")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    batches = _parse_batches(args.batch)
    spec = load_bundle(args.bundle).spec if args.bundle is not None else build_diracdeltanet()
    params = (load_cost_config(args.cost_config) if args.cost_config is not None
              else CostModelParams())
    report = build_report(spec, params, batches=batches)
    if args.out is not None:
        args.out.write_text(report.to_json() if args.out.suffix == ".json" else report.to_text())
        print(f"report written to {args.out}")
    else:
        print(report.to_text(), end="")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    bundle = load_bundle(args.bundle)
    counts = count_params_macs(bundle.spec)
    print(
        f"bundle OK: {len(bundle.weights)} conv layers, {bundle.net.tag}, "
        f"s={bundle.net.s}, params {counts.total_params}"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diracdelta",
        description="4-bit ConvNet inference engine and tiled-pipeline simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="write a seeded random-weight bundle")
    p.set_defaults(run=cmd_build)
    p.add_argument("--out", type=Path, required=True, help="bundle directory to create")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--s", type=float, default=1.0, help="shared activation scale")

    p = sub.add_parser("quantize", help="quantize raw float32 weights into a bundle")
    p.set_defaults(run=cmd_quantize)
    p.add_argument("--weights", type=Path, required=True,
                   help="directory of <layer>.bin float32 files")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--s", type=float, default=1.0)

    p = sub.add_parser("infer", help="classify one input tensor")
    p.set_defaults(run=cmd_infer)
    p.add_argument("--bundle", type=Path, required=True)
    p.add_argument("--input", type=Path, help="input tensor blob; omitted means seeded random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--engine", choices=("reference", "simulator"), default="reference")
    p.add_argument("--scheduler", choices=sorted(SCHEDULERS), default="single-thread")
    p.add_argument("--out", type=Path, help="write logits as little-endian float64")

    p = sub.add_parser("simulate", help="run the pipeline engine with statistics")
    p.set_defaults(run=cmd_simulate)
    p.add_argument("--bundle", type=Path, required=True)
    p.add_argument("--input", type=Path)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scheduler", choices=sorted(SCHEDULERS), default="single-thread")
    p.add_argument("--out", type=Path, help="write the statistics table to a file")

    p = sub.add_parser("report", help="cost-model report: roofline, batches, ablation")
    p.set_defaults(run=cmd_report)
    p.add_argument("--bundle", type=Path, help="take the network shape from this bundle")
    p.add_argument("--batch", default="1,2,4,8,16", help="comma-separated batch sizes")
    p.add_argument("--cost-config", type=Path, help="key = value overrides for the cost model")
    p.add_argument("--out", type=Path, help=".json for machine-readable, else text")

    p = sub.add_parser("validate", help="verify a bundle's checksums and graph")
    p.set_defaults(run=cmd_validate)
    p.add_argument("--bundle", type=Path, required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValidationError(f"--seed must be non-negative, got {args.seed}")
        for name in ("bundle", "input", "cost_config"):
            p = getattr(args, name, None)
            if p is not None and not p.exists():
                raise OSError(f"{name.replace('_', '-')} path does not exist: {p}")
        return args.run(args)
    except DiracDeltaError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
