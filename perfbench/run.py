"""Host-time benchmark of the two diracdelta engines.

    python3 perfbench/run.py --workload ref_224 --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout: it imports the package from `src/` next
to this directory and exits with code 2 when that is missing. Every run is
one process and one client in a closed loop: a frame starts only when the
previous frame is done. The seed makes every input (bundle weights and
frames); the program receives only those inputs. The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; the lines before it print every metric with its unit, the input
digest and the environment. The exit code is 1 when any output check fails.

Checks, all outside the timed region, any failure counted as a failed frame:
every repeat of a frame gives the same logits bytes; reference and simulator
logits are byte-equal on every `small_nets` frame and on the first two
frames of the `*_224` workloads; on the default network every simulator
step's DRAM read, write, weight and copy bytes equal `accel.perf.step_cost`.

Workloads
---------
ref_224
    Why: the `infer` path, the target of reference fast-path work. Loads
    `net`, `ops` (conv1x1_ref, pool, shift, concat_shuffle, the head),
    `quant` (ThresholdTable.apply, the largest single share of a frame) and
    `tensor`. Bypasses `accel.*`: a change only to the simulator should
    leave every end-to-end metric here unchanged.
sim_224
    Why: the `simulate` / `--engine simulator` path with the single-thread
    scheduler. Loads `accel.subgraph` (the conv stage), `accel.units` (pool
    and shift lanes, shuffle writeback), `accel.fifo` (row handoffs), and the
    shared head, `quant` and `tensor`. Bypasses `ops.conv1x1_ref` and the
    reference pool/shift/shuffle: a reference-only change should move this
    workload little, except through the head and ThresholdTable.apply.
small_nets
    Why: per-call and per-step overhead instead of arithmetic, and the
    promise that both engines agree on every valid NetworkSpec. A fixed
    rotation of seven small specs (16-64 px, one to three stages, odd and
    even head sizes, widths not multiples of 32); every frame runs through
    both engines. Loads every layer on tiny tensors: `compile_steps` on each
    `forward`, FIFO handoffs, pack/unpack per op. A change that adds per-call
    set-up can win on `*_224` and lose here; a change to arithmetic only
    should leave it nearly unchanged.

End-to-end metrics (untraced run, `--trace 0`)
----------------------------------------------
A frame is one input through the engines the workload times: the reference
engine on ref_224, the simulator on sim_224, both in turn on small_nets
(16-64 px). The human-readable lines also split these by engine (`ref_fps`,
`sim_fps`, ...) and give `failed_share`.

    fps           frames per host second of frame time (ref_224, sim_224: 224x224x3)
    frame_s_p50   median host seconds per frame
    frame_s_tail  host seconds per frame at the highest percentile with at
                  least ten frames beyond it; percentile and count are printed
    setup_s       median of five set-ups, each random_bundle with its
                  threshold tables, save_bundle + load_bundle, input
                  generation and one warm-up frame per engine: one before
                  the first timed frame, four between frames spread evenly
                  over the run (outside every frame's time)
    peak_rss_mb   peak resident memory of the process after the timed loop

Per-layer metrics (traced run, `--trace 1`)
-------------------------------------------
The tracer wraps the `executor` passed to `forward` and the package's
module-boundary functions from outside (see tracing.py); every second
rotation through the workload's networks is traced (every second frame on
`*_224`). Times are self seconds (span minus child spans) per traced frame.
A layer that only one engine uses (`ops.conv1x1`, pool, shift and
concat_shuffle; `subgraph.*`, `units.*`, `fifo.*`) is given per frame of
that engine: on a workload whose timed loop does not run that engine it is
measured on the traced check frames instead. Set-up layers (`bundle.*`,
`quant.table_build_s`) are seconds of the run's one (traced) set-up. `sim.*`
are SubgraphStats summed over the steps of frame 0 of each network, `perf.*`
are cost-model figures for one frame of each network: simulated board
quantities, never host time, so their units say `board`. A host-speed change
must leave every `sim.*` and `perf.*` count identical. All counts repeat
exactly for a seed; only `sim.peak_acc` also depends on the seed's weights
and frames. `trace.untraced_fps` and `trace.traced_fps` compare the
interleaved untraced and traced frames of the same run: the tracing
overhead.

`perf.iters.<conv>.cost_model` and `perf.iters.<conv>.macs` count the 32x32
tile iterations of each of the five pooled convs two ways: as `conv_cycles`
charges them (pooled output raster) and as `count_params_macs` counts the
work (pre-pool raster). They differ by 4x; the benchmark shows the count and
takes no side.

Which end-to-end metric each layer should move:
    net.forward_self_s, net.compile_steps_s         fps on small_nets
    ops.conv1x1_s, ops.conv1x1_macs                 fps on ref_224
    ops.pool_s, ops.shift_s, ops.concat_shuffle_s,
    ops.channel_split_s                             fps on ref_224 and small_nets
    ops.head_s, quant.apply_s, quant.apply_elems    fps on ref_224 and sim_224
    quant.table_build_s, bundle.*                   setup_s everywhere
    tensor.*                                        fps everywhere
    subgraph.*, units.*                             fps on sim_224
    fifo.run_s, fifo.transfers                      fps on sim_224 and small_nets

The concurrent scheduler's seconds per frame (small_nets only) and the
per-engine split are printed but are not in the JSON line: on two cores the
concurrent figure spreads too far to compare runs.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("ref_224", "sim_224", "small_nets")
POOLED_CONVS = ("conv1", "conv2", "s2d_res_conv1", "s3d_res_conv1", "s4d_res_conv1")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_package():
    """Import diracdelta from this checkout's src/, or return None."""
    src = ROOT / "src"
    if not (src / "diracdelta" / "__init__.py").is_file():
        return None
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    import diracdelta
    if Path(diracdelta.__file__).resolve().parent != src / "diracdelta":
        return None
    return diracdelta


def blas_threads() -> str:
    """Thread count of numpy's bundled OpenBLAS, or the environment's setting."""
    import ctypes
    import glob

    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return str(fn())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if var in os.environ:
            return f"{os.environ[var]} ({var})"
    return "unknown"


def environment() -> str:
    import numpy as np
    return (f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
            f"numpy={np.__version__} blas_threads={blas_threads()}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


def end_to_end(wl, workload, frames, setup_times, rss):
    """The untraced run's metrics, plus the per-engine lines they summarise."""
    timed = [f for f in frames if f.seconds]
    whole = wl.timing_summary([sum(f.seconds.values()) for f in timed])
    lines = []
    for engine in workload.engines:
        s = wl.timing_summary([f.seconds[engine] for f in timed])
        lines += [(f"{engine}_fps", s["fps"], "1/s", ""),
                  (f"{engine}_frame_s_p50", s["p50"], "s", ""),
                  (f"{engine}_frame_s_tail", s["tail"], "s",
                   f"p{s['tail_pct']:.1f} of {s['n']} frames")]
    metrics = {
        "fps": (whole["fps"], "1/s", ""),
        "frame_s_p50": (whole["p50"], "s", ""),
        "frame_s_tail": (whole["tail"], "s", f"p{whole['tail_pct']:.1f} of {whole['n']} frames"),
        "setup_s": (statistics.median(setup_times), "s",
                    "median of " + ", ".join(f"{t:.3f}" for t in setup_times)),
        "peak_rss_mb": (rss, "MiB", ""),
    }
    return metrics, lines


def per_layer(wl, workload, cases, outputs, frames, totals, n_check):
    """The traced run's metrics, plus the lines that are printed only."""
    traced = [f for f in frames if f.traced and f.seconds]
    plain = [f for f in frames if not f.traced and f.seconds]
    metrics = {}
    for name, value in {**wl.layer_metrics(workload, *totals, len(traced), n_check),
                        **wl.sim_counts(cases, outputs)}.items():
        unit = "s" if name.endswith("_s") else "bytes" if name.endswith("_bytes") else "count"
        metrics[name] = (value, unit, "")
    model, iters, report_s = wl.model_quantities(cases)
    metrics["perf.report_s"] = (statistics.fmean(report_s), "s", "per network")
    metrics["perf.frame_cycles"] = (model["perf.frame_cycles"], "board_cycles", "")
    metrics["perf.model_frame_s"] = (model["perf.model_frame_s"], "board_s", "")
    metrics["perf.model_fps_b1"] = (model["perf.model_fps_b1"], "1/board_s", "")
    metrics["perf.model_fps_b16"] = (model["perf.model_fps_b16"], "1/board_s", "")
    for conv in POOLED_CONVS:
        model_iters, mac_iters = iters.get(conv, (0, 0))
        metrics[f"perf.iters.{conv}.cost_model"] = (model_iters, "count", "output raster")
        metrics[f"perf.iters.{conv}.macs"] = (mac_iters, "count", "pre-pool raster")
    for label, group in (("untraced", plain), ("traced", traced)):
        fps = wl.timing_summary([sum(f.seconds.values()) for f in group])["fps"]
        metrics[f"trace.{label}_fps"] = (fps, "1/s", f"{len(group)} frames")
    lines = []
    for engine in workload.engines:
        for label, group in (("untraced", plain), ("traced", traced)):
            fps = wl.timing_summary([f.seconds[engine] for f in group])["fps"]
            lines.append((f"trace.{engine}_{label}_fps", fps, "1/s", ""))
    if workload.name == "small_nets":
        conc = wl.concurrent_frames(cases, outputs)
        lines.append(("fifo.concurrent_frame_s", statistics.fmean(conc), "s",
                      "one frame of each network; not compared across runs"))
    return metrics, lines


def describe(name, value, unit, note=""):
    print(f"  {name:34s} {value:>16.6g} {unit:12s} {note}".rstrip())


def main(argv=None) -> int:
    args = parse_args(argv)
    if import_package() is None:
        print(f"perfbench: no diracdelta package under {ROOT / 'src'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    import workloads as wl
    from tracing import Tracer

    workload = wl.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        cases, seconds = wl.set_up(workload, args.seed, scratch, tracer)
        setup_totals = tracer.reset() if tracer else {}
        setup_times = [seconds]

        def set_up_again():
            setup_times.append(wl.set_up(workload, args.seed, scratch)[1])

        outputs = wl.Outputs(strict_traffic=workload.specs == (wl.build_diracdeltanet(),))
        frames = wl.timed_loop(workload, cases, args.seconds, outputs, tracer,
                               None if args.trace else set_up_again)
    finally:
        shutil.rmtree(scratch)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    rss = peak_rss_mb()
    loop_totals = tracer.reset() if tracer else {}
    n_check = wl.check_samples(workload, cases, outputs, tracer)
    check_totals = tracer.reset() if tracer else {}

    if args.trace:
        metrics, lines = per_layer(wl, workload, cases, outputs, frames,
                                   (setup_totals, loop_totals, check_totals), n_check)
    else:
        metrics, lines = end_to_end(wl, workload, frames, setup_times, rss)
    attempted = len(frames)
    failed = sum(1 for f in frames if not f.ok or f.key in outputs.bad)
    correct = failed == 0 and not outputs.errors

    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} (closed loop, 1 client)")
    print(f"environment {environment()}")
    print(f"input_digest sha256:{wl.input_digest(cases)} "
          f"({len(cases)} networks x {workload.frames_per_spec} frames)")
    for err in outputs.errors[:20]:
        print(f"CHECK FAILED {err}")
    if len(outputs.errors) > 20:
        print(f"... and {len(outputs.errors) - 20} more failed checks")
    if tracer is not None and tracer.missing:
        print("tracer targets missing from the package: " + ", ".join(tracer.missing))
    print("per-layer (traced)" if args.trace else "end-to-end (untraced)")
    for line in lines:
        describe(*line)
    for name, (value, unit, note) in metrics.items():
        describe(name, value, unit, note)
    describe("failed_share", failed / attempted, "share", f"{failed} of {attempted} frames")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _note) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
