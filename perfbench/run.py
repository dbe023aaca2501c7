#!/usr/bin/env python3
"""adtstab benchmark: one workload, one seed, one closed-loop client.

Run from the root of an adtstab checkout:

    python3 perfbench/run.py --workload stability_map --seed 1 --seconds 20 --trace 0

With --trace 0 it times the workload's items for --seconds seconds of item
time, checks every distinct output with an independent oracle, measures
set-up time in fresh processes, and prints the end-to-end metrics, scaled to
a reference host speed (see speed.py).  With --trace 1 it alternates
untraced and traced passes over the item list and prints per-layer counters
and self times per pass.  The last stdout line is
the JSON result; a copy with the environment goes to .perfbench_out/.
See perfbench/README.md for the metrics and workloads.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# one BLAS thread: the load is a single client, and the 2-core box is shared
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import speed  # noqa: E402

WORKLOADS = ("stability_map", "parabolic_trajectories", "comparison_replay", "cli_artifacts")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
OUT_DIR = ".perfbench_out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up the workload, print 'ready' and exit")
    return parser.parse_args(argv)


class Ledger:
    """Outcome of every item attempted: timed samples, errors by class, and the
    first summary of each distinct item for the oracles."""

    def __init__(self, items):
        self.items = items
        self.attempted = 0
        self.samples = []  # (item index, seconds, attempt number) of completed items
        self.errors = Counter()
        self.examples = {}
        self.first = {}
        self.ok_runs = Counter()

    def _fail(self, kind: str, detail: str, count: int = 1) -> None:
        self.errors[kind] += count
        self.examples.setdefault(kind, detail)

    def run_item(self, index: int, scope=nullcontext) -> float:
        """Run one item; return the seconds it took (the only timed code)."""
        item = self.items[index]
        attempt = self.attempted
        self.attempted += 1
        start = time.perf_counter()
        try:
            with scope():
                output = item.run()
        except Exception as exc:  # counted per class, never discarded
            elapsed = time.perf_counter() - start
            self._fail(type(exc).__name__, f"{item.label}: {traceback.format_exc()}")
            return elapsed
        elapsed = time.perf_counter() - start
        self.samples.append((index, elapsed, attempt))
        try:
            summary = item.summarize(output)
        except Exception as exc:
            self._fail(type(exc).__name__, f"{item.label}: {traceback.format_exc()}")
            return elapsed
        if index not in self.first:
            self.first[index] = summary
        elif summary["digest"] != self.first[index]["digest"]:
            self._fail("NonDeterministic", f"{item.label}: output differs from its first run")
            return elapsed
        self.ok_runs[index] += 1
        return elapsed

    def check(self) -> None:
        """Oracle on each distinct item; a failure, including output the
        oracle cannot parse, counts every run of it."""
        for index, summary in sorted(self.first.items()):
            try:
                self.items[index].check(summary)
            except Exception as exc:
                self._fail(type(exc).__name__, f"{self.items[index].label}: {exc}",
                           self.ok_runs[index])

    @property
    def failed(self) -> int:
        return sum(self.errors.values())

    def certified_frac(self) -> tuple[int, int]:
        verdicts = [s["certified"] for s in self.first.values() if "certified" in s]
        return sum(verdicts), len(verdicts)


def percentile_ms(seconds, q: float) -> float:
    return float(np.percentile(np.asarray(seconds) * 1e3, q))


def pass_rate(samples) -> float:
    """Items per second over one pass of the item list, each item taking
    its median latency over the run; a burst of interference from other
    processes moves a few samples, not the medians."""
    by_item = defaultdict(list)
    for index, seconds in samples:
        by_item[index].append(seconds)
    return len(by_item) / sum(statistics.median(times) for times in by_item.values())


def timing_metrics(samples, setup_s: float) -> dict:
    seconds = [t for _, t in samples]
    return {
        "items_per_s": pass_rate(samples),
        "item_ms_p50": percentile_ms(seconds, 50),
        "item_ms_p95": percentile_ms(seconds, 95),
        "setup_s": setup_s,
    }


def probe_setup(args) -> list[float]:
    """Wall time from spawning a fresh process to its first timed item."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                proc.stdout.read()
                code = proc.wait(timeout=PROBE_TIMEOUT_S)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed with exit code {code}")
        times.append(elapsed)
    return times


def environment(root: Path, args) -> dict:
    import numpy
    import scipy

    commit = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() if done.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "adtstab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


def timed_run(ledger, seconds: float) -> tuple[float, list[float]]:
    """Closed loop, one client: the next item starts when the previous ends.
    A host-speed probe follows every item, outside the timed region."""
    busy = 0.0
    probes = []
    while busy < seconds:
        busy += ledger.run_item(len(probes) % len(ledger.items))
        probes.append(speed.probe())
    return busy, probes


def traced_run(ledger, tracer, seconds: float) -> dict:
    """Alternate an untraced and a traced pass over every item until the
    time is used; the traced passes give the per-layer numbers and the
    ratio of the two gives the tracing overhead."""
    plain = traced = 0.0
    passes = 0
    while passes == 0 or plain + traced < seconds:
        plain += sum(ledger.run_item(i) for i in range(len(ledger.items)))
        with tracer.installed():
            for i, item in enumerate(ledger.items):
                traced += ledger.run_item(i, lambda: tracer.item(item.label))
        passes += 1
    return {"passes": passes, "plain_s": plain, "traced_s": traced}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    package = root / "src" / "adtstab"
    if not (package / "__init__.py").is_file():
        print(f"error: {package} not found; run from the root of an adtstab checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import adtstab

    if Path(adtstab.__file__).resolve().parent != package.resolve():
        print(f"error: adtstab imported from {adtstab.__file__}, not {package}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    out_dir = root / OUT_DIR
    scratch = out_dir / f"tmp-{args.workload}-{os.getpid()}"
    try:
        items = workloads.build(args.workload, args.seed, scratch)
        ledger = Ledger(items)
        for label in dict.fromkeys(item.label for item in items):  # warm up each class
            index = next(i for i, item in enumerate(items) if item.label == label)
            Ledger(items).run_item(index)
        setup_self_s = time.perf_counter() - _T0
        if args.setup_probe:
            print("ready", flush=True)
            return 0

        if args.trace:
            tracer = tracing.Tracer()
            loop = traced_run(ledger, tracer, args.seconds)
        else:
            busy, probes = timed_run(ledger, args.seconds)
            loop = {"busy_s": busy, "speed_probe_median_s": statistics.median(probes)}
        ledger.check()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        certified, cells = ledger.certified_frac()
        extras = {
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "fail_frac": ledger.failed / ledger.attempted,
            "errors": dict(ledger.errors),
            "error_examples": ledger.examples,
            "samples": len(ledger.samples),
            "distinct_items": len(items),
            "certified_cells": certified,
            "cells": cells,
            "setup_self_s": setup_self_s,
            **loop,
        }
        if args.trace:
            values = tracer.layer_metrics(loop["passes"])
            values["certify.certified_frac"] = certified / cells if cells else 0.0
            values["trace.overhead_frac"] = loop["traced_s"] / loop["plain_s"] - 1.0
            extras["missing_functions"] = tracer.missing
            extras["evaluate_certificate_profile"] = tracer.subtree_profile(
                "certify.evaluate_certificate")
            out_dir.mkdir(exist_ok=True)
            tracer.write_spans(out_dir / f"{args.workload}-seed{args.seed}-spans.csv.gz")
        else:
            setup = probe_setup(args)
            raw = [(index, seconds) for index, seconds, _ in ledger.samples]
            scale = speed.factors(probes)
            scaled = [(index, seconds * scale[attempt])
                      for index, seconds, attempt in ledger.samples]
            setup_scale = speed.PROBE_REF_S / loop["speed_probe_median_s"]
            values = timing_metrics(scaled, statistics.median(setup) * setup_scale)
            values["peak_rss_mb"] = peak_rss_mb
            extras["raw"] = timing_metrics(raw, statistics.median(setup))
            extras["raw"]["mean_items_per_s"] = len(raw) / busy
            extras["setup_probes_s"] = setup
            by_label = defaultdict(list)
            for index, seconds in raw:
                by_label[items[index].label].append(seconds)
            extras["raw_item_ms_p50_by_label"] = {
                label: percentile_ms(times, 50) for label, times in sorted(by_label.items())}

        env = environment(root, args)
        result = {
            "correct": ledger.failed == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in declared},
        }
        report(args, result, extras, env)
        out_dir.mkdir(exist_ok=True)
        record = {"result": result, "details": extras, "environment": env}
        (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=2) + "\n", encoding="utf-8")
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def report(args, result, extras, env) -> None:
    """Human-readable lines ahead of the JSON result line."""
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(f"  samples {extras['samples']} over {extras['distinct_items']} distinct items")
    print(f"  fail_frac {extras['failed']}/{extras['attempted']} = {extras['fail_frac']:.6g}"
          f"  errors {extras['errors']}")
    for kind, example in extras["error_examples"].items():
        print(f"  first {kind}: {example.strip().splitlines()[-1]}")
    if extras["cells"]:
        print(f"  certified_frac {extras['certified_cells']}/{extras['cells']} = "
              f"{extras['certified_cells'] / extras['cells']:.6g}")
    for label, prof in extras.get("evaluate_certificate_profile", {}).items():
        top = ", ".join(f"{k} {v:.0%}" for k, v in list(prof["self_share"].items())[:3])
        print(f"  evaluate_certificate[{label}] {prof['mean_ms']:.1f} ms/call "
              f"over {prof['calls']} calls; self time: {top}")
    print("  env " + json.dumps(env, sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
