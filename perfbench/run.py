#!/usr/bin/env python3
"""Benchmark of the stbcid pipeline: end-to-end runs and a traced per-layer run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

``--workload`` is ``train``, ``infer``, ``baseline`` (see workloads.py) or
``all``, which runs each in its own process. The package is imported from
``src/`` of the checkout; nothing is built or installed.

One run sets the workload up ``SETUP_REPEATS`` times (``setup_s`` is the
median; the last set-up's inputs are used), makes one untimed warm-up pass
of the timed CLI commands, then repeats passes for ``--seconds`` (at least
``MIN_PASSES``) and checks the outputs. Set-up and pass times are scaled
by a reference kernel timed around each of them (reference.py), because the
host's speed drifts by up to 2x over minutes; the unscaled values are
printed too. With ``--trace 0`` it reports the end-to-end metrics of
BENCHMARK.json for the workload. With ``--trace 1`` each pass runs the
commands of all three workloads, so that every layer is reached whichever
workload is named; untraced and traced passes alternate, and it reports the
per-layer metrics (layer_metrics.py) and the tracing overhead. BLAS runs one
thread, like the CLI's ``--threads 1``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. An op is a training
step (train) or a scored frame (infer, baseline); a non-zero exit fails
every op of its pass, a non-finite loss or probability fails its op. The
exit code is 0 when every check passes, 1 when one fails, and 2 when the
arguments are wrong or the checkout holds no ``src/stbcid``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # read once, when numpy loads BLAS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("train", "infer", "baseline")
SETUP_REPEATS = 9
MIN_PASSES = 3  # untraced run
MIN_TRACE_PASSES = 4  # traced run: half of them traced


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="a few SNRs and bursts, for the smoke test")
    return p.parse_args(argv)


def blas_threads():
    """Threads OpenBLAS will use, asked of the library numpy loaded; None if unknown."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def machine_record(workload, measured) -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "workload": workload.name,
        "passes_run": measured.name,
        "seeds": measured.seeds(),
    }


@dataclass
class Pass:
    """One run of the workload's commands."""

    results: list
    seconds: float  # wall time of the commands
    minor_faults: int
    sys_s: float  # kernel time
    traced: bool
    scale: float = 1.0  # reference.NOMINAL_S / reference kernel seconds around the pass

    @property
    def scaled_s(self) -> float:
        return self.seconds * self.scale


def run_pass(wl, tracer=None) -> Pass:
    import resource

    from workloads import run_cli

    before = resource.getrusage(resource.RUSAGE_SELF)
    span = tracer.open("pass") if tracer else None
    results = []
    for cmd in wl.commands():
        cmd_span = tracer.open(f"cli.{cmd.name}") if tracer else None
        result = run_cli(cmd.argv)
        if tracer:
            tracer.close(cmd_span)
            cmd_span.meta["rc"] = result.rc
        results.append(result)
    if tracer:
        tracer.close(span)
    after = resource.getrusage(resource.RUSAGE_SELF)
    return Pass(results, sum(r.seconds for r in results), after.ru_minflt - before.ru_minflt,
                after.ru_stime - before.ru_stime, tracer is not None)


def output_digests(wl):
    from workloads import digest

    return [digest(p) if os.path.exists(p) else None
            for cmd in wl.commands() for p in cmd.outputs]


def measure(wl, seconds: float, trace: bool, work: str) -> tuple[dict, list[str]]:
    """Set up, warm up, time the passes and check them; return (report, failures).

    The reference kernel runs before the first set-up and after every set-up
    and pass; each set-up and pass is scaled by the mean of the two runs
    around it (see reference.py).
    """
    import resource
    import statistics
    import time

    from reference import NOMINAL_S, kernel_seconds
    from spans import Instrumented, Tracer

    kernel_seconds()  # the first call pays for page faults and caches
    ref_s = [kernel_seconds()]

    def scale() -> float:
        ref_s.append(kernel_seconds())
        return NOMINAL_S / ((ref_s[-2] + ref_s[-1]) / 2)

    setup_s, setup_scaled_s = [], []
    for k in range(SETUP_REPEATS):
        start = time.perf_counter()
        wl.setup(os.path.join(work, f"setup{k}"))
        setup_s.append(time.perf_counter() - start)
        setup_scaled_s.append(setup_s[-1] * scale())

    failures = []
    warm = run_pass(wl).results
    reference = output_digests(wl)
    scale()
    tracer = Tracer()
    passes: list[Pass] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(passes) < (MIN_TRACE_PASSES if trace
                                                           else MIN_PASSES):
        if trace and len(passes) % 2 == 1:
            with Instrumented(tracer):
                passes.append(run_pass(wl, tracer))
        else:
            passes.append(run_pass(wl))
        passes[-1].scale = scale()
        if output_digests(wl) != reference:
            failures.append(f"pass {len(passes)}: outputs differ from the warm-up pass")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    commands = wl.commands()
    exits = [(c.name, r.rc, r.stderr.strip()) for res in [warm] + [p.results for p in passes]
             for c, r in zip(commands, res) if r.rc != 0]
    failures += [f"{name} exited {rc}: {err}" for name, rc, err in exits]
    if not exits:
        failures += wl.check(passes[-1].results)

    ops = sum(c.ops for c in commands)
    frames = sum(c.frames for c in commands)
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    median = statistics.median
    report = {
        "attempted": ops * len(passes),
        "failed": sum(ops if any(r.rc != 0 for r in p.results) else wl.nonfinite_ops
                      for p in passes),
        "passes": len(untraced),
        "setup_s": median(setup_scaled_s),
        "frames_per_s": median(frames / p.scaled_s for p in untraced),
        "per_command": {
            c.rate_name: median(c.frames / (p.results[i].seconds * p.scale) for p in untraced)
            for i, c in enumerate(commands)},
        "unscaled": {
            "frames_per_s": (median(frames / p.seconds for p in untraced), "frames/s"),
            "setup_s": (median(setup_s), "s"),
            "reference_kernel_s": (median(ref_s), "s"),
        },
        "peak_rss_mb": peak_rss_mb,
        "pass_s": [p.seconds for p in untraced],
        "all_setup_s": setup_s,
        "minor_faults": median(p.minor_faults for p in untraced),
        "sys_ms": median(p.sys_s * 1e3 for p in untraced),
        "tracer": tracer,
    }
    if traced:
        overhead = median(p.scaled_s for p in traced) - median(p.scaled_s for p in untraced)
        report["trace_overhead_ms"] = overhead * 1e3
        report["trace_overhead_pct"] = overhead / median(p.scaled_s for p in untraced) * 100.0
    return report, failures


def end_to_end(wl, report) -> dict:
    return {
        "frames_per_s": (report["frames_per_s"], "frames/s"),
        "accuracy": (wl.accuracy, "ratio"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        "setup_s": (report["setup_s"], "s"),
    }


def write_spans(tracer, path: str, machine: dict) -> None:
    """The machine record, per-name totals of every traced pass, and the spans of the first."""
    summary = {}
    for s, own in zip(tracer.spans, tracer.self_seconds()):
        row = summary.setdefault(s.name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += s.seconds * 1e3
        row["self_ms"] += own * 1e3
    first = [i for i, s in enumerate(tracer.spans) if s.name == "pass"][:2]
    end = first[1] if len(first) > 1 else len(tracer.spans)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"machine": machine, "summary": summary,
                   "first_pass": [s.as_dict() for s in tracer.spans[:end]]}, f)


def run_one(args) -> int:
    import shutil

    import layer_metrics
    from workloads import WORKLOADS, Pipeline

    asked = WORKLOADS[args.workload](args.seed, args.tiny)
    wl = Pipeline(args.seed, args.tiny) if args.trace else asked
    work = os.path.join(ROOT, ".bench_work", f"{asked.name}-{args.seed}-{os.getpid()}")
    try:
        report, failures = measure(wl, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    machine = machine_record(asked, wl)
    print("machine " + json.dumps(machine))
    print(f"workload {asked.name}: {asked.why}")
    if args.trace:
        print(f"traced passes run the {wl.name}: {wl.why}")
    print(f"passes {report['passes']} untraced, seconds {args.seconds:g}, "
          f"set-ups {SETUP_REPEATS}, trace {args.trace}")
    print("untraced pass seconds " + " ".join(f"{s:.4f}" for s in report["pass_s"]))
    print("set-up seconds " + " ".join(f"{s:.4f}" for s in report["all_setup_s"]))
    if args.trace:
        tracer = report["tracer"]
        values = layer_metrics.per_layer_metrics(tracer, wl.accuracy_curves)
        values["process.minor_faults"] = report["minor_faults"]
        values["process.sys_ms"] = report["sys_ms"]
        values["trace.overhead_ms"] = report["trace_overhead_ms"]
        values["trace.overhead_pct"] = report["trace_overhead_pct"]
        metrics = {name: (values[name], unit)
                   for name, unit, _, _ in layer_metrics.metric_specs()}
        kinds = {name: kind for name, _, _, kind in layer_metrics.metric_specs()}
        out = os.path.join(ROOT, ".bench_out", f"spans-{asked.name}-{args.seed}.json")
        write_spans(tracer, out, machine)
        print(f"spans written to {os.path.relpath(out, ROOT)}")
    else:
        metrics = end_to_end(wl, report)
        kinds = {name: "measured" for name in metrics}
        info = dict(wl.info)
        info.update({k: (v, "frames/s") for k, v in report["per_command"].items()})
        info.update({f"unscaled_{k}": v for k, v in report["unscaled"].items()})
        info["failed_share"] = (report["failed"] / report["attempted"], "ratio")
        for name, (value, unit) in info.items():
            print(f"  info {name} = {value:.6g} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"  {kinds[name]:>8} {name} = {value:.6g} {unit}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if not failures else 1


def run_all(args) -> int:
    """Each workload in its own process, one after the other; a combined last line."""
    import subprocess

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return worst if worst else (0 if combined["correct"] else 1)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "stbcid", "__init__.py")):
        print(f"perfbench: no stbcid package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    import stbcid

    if os.path.dirname(os.path.abspath(stbcid.__file__)) != os.path.join(SRC, "stbcid"):
        print(f"perfbench: imported stbcid from {stbcid.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
