"""Command-line front end.

Subcommands:

    build      write a seeded random-weight bundle and print its structure
    quantize   turn raw float32 weight files into a runnable bundle
    infer      run a bundle on an input tensor (reference or simulator engine)
    simulate   run the pipeline engine and print per-invocation statistics
    report     roofline, batch sweep, and block ablation from the cost model
    validate   load a bundle, verifying checksums and rebuilding its tables

Exit status: 0 on success, 1 on any validation or model error, 2 on I/O
failures.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

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
from .errors import DiracDeltaError, UnsupportedWidthError, ValidationError
from .net import build_diracdeltanet, count_params_macs, forward
from .quant import NetworkQuantParams
from .tensor import FeatureMap, read_tensor_blob

DEFAULT_BATCHES = (1, 2, 4, 8, 16)


@dataclass
class RunConfig:
    """Validated settings for one command invocation."""

    command: str
    bundle: Optional[Path] = None
    input: Optional[Path] = None
    batch: tuple = DEFAULT_BATCHES
    engine: str = "reference"
    seed: int = 0
    cost_config: Optional[Path] = None
    out: Optional[Path] = None
    scheduler: str = "single-thread"

    def __post_init__(self):
        if any(b < 1 for b in self.batch):
            raise ValidationError(f"batch sizes must be >= 1, got {self.batch}")
        for name in ("bundle", "input", "cost_config"):
            p = getattr(self, name)
            if p is not None and not Path(p).exists():
                raise OSError(f"{name.replace('_', '-')} path does not exist: {p}")


def _parse_batches(text: str) -> tuple:
    try:
        return tuple(int(b) for b in text.split(","))
    except ValueError:
        raise ValidationError(f"--batch wants comma-separated integers, got {text!r}") from None


def _load_input(cfg: RunConfig, spec) -> FeatureMap:
    if cfg.input is not None:
        return read_tensor_blob(cfg.input)
    rng = np.random.default_rng(cfg.seed)
    size = (spec.input_size, spec.input_size, spec.input_channels)
    return FeatureMap.from_array(rng.integers(0, 16, size=size, dtype=np.uint8))


def _print_structure(spec) -> None:
    counts = count_params_macs(spec)
    print(f"conv layers: {len(counts.layers) - 1}, plus the classifier")
    print(f"first stage params {counts.stem_params}, macs {counts.stem_macs}")
    print(f"total params {counts.total_params}, macs {counts.total_macs}")


def cmd_build(cfg: RunConfig, s: float) -> int:
    spec = build_diracdeltanet()
    net = NetworkQuantParams(s=s)
    bundle = random_bundle(spec, net, cfg.seed)
    path = save_bundle(bundle, cfg.out)
    print(f"bundle written to {path}")
    _print_structure(spec)
    print(f"quant {net.tag}, s={net.s}, seed {cfg.seed}")
    return 0


def cmd_quantize(cfg: RunConfig, weights_dir: Path, s: float, w_bits: int,
                 a_bits: int) -> int:
    for name, bits in (("weight", w_bits), ("activation", a_bits)):
        if bits > 8:
            raise UnsupportedWidthError(
                f"{bits}-bit {name} codes are not storable; the bundle format "
                "holds codes of at most 8 bits"
            )
        if bits != 4:
            raise UnsupportedWidthError(
                f"{bits}-bit {name} codes cannot run on the 4-bit engine pipeline"
            )
    spec = build_diracdeltanet()
    net = NetworkQuantParams(s=s, k_w=w_bits, k_a=a_bits)
    floats = read_float_weights(weights_dir, spec)
    bundle = quantize_bundle(spec, net, floats)
    path = save_bundle(bundle, cfg.out)
    print(f"bundle written to {path}")
    print(f"quantized as {net.tag}, s={s}")
    return 0


def cmd_infer(cfg: RunConfig) -> int:
    bundle = load_bundle(cfg.bundle)
    fm = _load_input(cfg, bundle.spec)
    executor = None
    if cfg.engine == "simulator":
        executor = SimulatorExecutor(scheduler=cfg.scheduler)
    result = forward(bundle, fm, executor=executor)
    if cfg.out is not None:
        Path(cfg.out).write_bytes(result.logits.astype("<f8").tobytes())
        print(f"logits written to {cfg.out}")
    top = result.class_index
    print(f"class {top} logit {result.logits[top]:.6f} ({cfg.engine} engine)")
    return 0


def cmd_simulate(cfg: RunConfig) -> int:
    bundle = load_bundle(cfg.bundle)
    fm = _load_input(cfg, bundle.spec)
    sim = SimulatorExecutor(scheduler=cfg.scheduler)
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
    if cfg.out is not None:
        Path(cfg.out).write_text(table)
        print(f"stats written to {cfg.out}")
    else:
        print(table, end="")
    peak = max(st.max_abs_acc for _, st in sim.log)
    print(f"peak |accumulator| {peak}")
    print(f"class {result.class_index} ({cfg.scheduler} scheduler)")
    return 0


def cmd_report(cfg: RunConfig) -> int:
    spec = load_bundle(cfg.bundle).spec if cfg.bundle else build_diracdeltanet()
    params = CostModelParams()
    if cfg.cost_config is not None:
        params = load_cost_config(cfg.cost_config, params)
    report = build_report(spec, params, batches=cfg.batch)
    if cfg.out is not None:
        out = Path(cfg.out)
        if out.suffix == ".json":
            out.write_text(report.to_json())
        else:
            out.write_text(report.to_text())
        print(f"report written to {out}")
    else:
        print(report.to_text(), end="")
    return 0


def cmd_validate(cfg: RunConfig) -> int:
    bundle = load_bundle(cfg.bundle)
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
    p.add_argument("--out", required=True, help="bundle directory to create")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--s", type=float, default=1.0, help="shared activation scale")

    p = sub.add_parser("quantize", help="quantize raw float32 weights into a bundle")
    p.add_argument("--weights", required=True, help="directory of <layer>.bin float32 files")
    p.add_argument("--out", required=True)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--w-bits", type=int, default=4)
    p.add_argument("--a-bits", type=int, default=4)

    p = sub.add_parser("infer", help="classify one input tensor")
    p.add_argument("--bundle", required=True)
    p.add_argument("--input", help="input tensor blob; omitted means seeded random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--engine", choices=("reference", "simulator"), default="reference")
    p.add_argument("--scheduler", choices=sorted(SCHEDULERS), default="single-thread")
    p.add_argument("--out", help="write logits as little-endian float64")

    p = sub.add_parser("simulate", help="run the pipeline engine with statistics")
    p.add_argument("--bundle", required=True)
    p.add_argument("--input")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scheduler", choices=sorted(SCHEDULERS), default="single-thread")
    p.add_argument("--out", help="write the statistics table to a file")

    p = sub.add_parser("report", help="cost-model report: roofline, batches, ablation")
    p.add_argument("--bundle", help="take the network shape from this bundle")
    p.add_argument("--batch", default="1,2,4,8,16", help="comma-separated batch sizes")
    p.add_argument("--cost-config", help="key = value overrides for the cost model")
    p.add_argument("--out", help=".json for machine-readable, else text")

    p = sub.add_parser("validate", help="verify a bundle's checksums and graph")
    p.add_argument("--bundle", required=True)
    return parser


def _to_config(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        bundle=Path(args.bundle) if getattr(args, "bundle", None) else None,
        input=Path(args.input) if getattr(args, "input", None) else None,
        batch=_parse_batches(args.batch) if getattr(args, "batch", None) else DEFAULT_BATCHES,
        engine=getattr(args, "engine", "reference"),
        seed=getattr(args, "seed", 0),
        cost_config=Path(args.cost_config) if getattr(args, "cost_config", None) else None,
        out=Path(args.out) if getattr(args, "out", None) else None,
        scheduler=getattr(args, "scheduler", "single-thread"),
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _to_config(args)
        if args.command == "build":
            return cmd_build(cfg, args.s)
        if args.command == "quantize":
            return cmd_quantize(cfg, Path(args.weights), args.s, args.w_bits, args.a_bits)
        if args.command == "infer":
            return cmd_infer(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "report":
            return cmd_report(cfg)
        if args.command == "validate":
            return cmd_validate(cfg)
        raise ValidationError(f"unknown command {args.command!r}")
    except DiracDeltaError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
