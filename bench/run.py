"""Benchmark for spincactus: four seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload act --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

Workloads: ``act`` (CLI act requests), ``verify-crystal`` (the crystal-side
suites), ``bijections`` (table/chain/pattern round trips per shape) and
``topvec`` (top-vector reports). ``all`` runs each in its own fresh process.

Operations come in units (see workloads.py) that always run whole, so every
run has the same mix of sizes. With ``--trace 0`` the run repeats units until
``--seconds`` of operation wall time and at least MIN_UNITS units, and
reports ops_per_s (operations over their summed latency), op_p50_ms and
op_p90_ms (median and 90th percentile latency of one operation; an operation
repeated with identical input in several units counts once, at its median),
setup_s (median of SETUP_REPEATS set-ups: import, input generation,
reference load) and peak_rss_mib (peak resident memory of the process after
the timed loop). All times are at a reference interpreter speed (see
ReferenceClock); the wall-time throughput is recorded too. With
``--trace 1`` it runs untraced for half the time, then runs the first unit
again with every layer wrapped (see tracer.py), checks that the traced
outputs equal the untraced ones, and reports the per-layer metrics (raw wall
seconds) and the traced/untraced throughput ratio.

Every output is checked outside the timed section; an operation that raises,
hits the budget or answers wrongly counts as failed. The outputs of the first
unit are also hashed and compared with bench/reference.json, taken from the
unchanged package, so a changed answer shows. The last line of standard
output is the JSON result; the full record, with provenance and, for traced
runs, the spans, goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))

from tracer import PER_LAYER, Tracer  # noqa: E402
from workloads import BUDGET_BITS, WORKLOADS  # noqa: E402

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)
SETUP_REPEATS = 9
MIN_UNITS = 2
CAL_REF_S = 0.25e-3
CAL_SHARE = 0.1
CAL_BEFORE_S = 0.0005
CAL_MAX_S = 0.25


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


def load_package():
    """Import spincactus and its submodules afresh from this checkout's src/."""
    if not (SRC / "spincactus" / "__init__.py").is_file():
        raise SetupError(f"no spincactus package under {SRC}")
    for name in [m for m in sys.modules if m == "spincactus" or m.startswith("spincactus.")]:
        del sys.modules[name]
    sc = importlib.import_module("spincactus")
    if Path(sc.__file__).resolve().parent != (SRC / "spincactus").resolve():
        raise SetupError(f"imported spincactus from {sc.__file__}, not from {SRC}")
    for sub in ("cli", "suites"):
        importlib.import_module(f"spincactus.{sub}")
    return sc


def load_reference():
    with open(HERE / "reference.json") as fh:
        return json.load(fh)


def setup(name, seed):
    """Import, build the workload and its first unit, load references; timed."""
    start = time.perf_counter()
    sc = load_package()
    workload = WORKLOADS[name](sc, seed)
    first = workload.unit(0)
    reference = load_reference()
    return time.perf_counter() - start, workload, first, reference


def _kernel():
    counts = {}
    for i in range(1000):
        key = (i & 15, i >> 4, i % 7)
        counts[key] = counts.get(key, 0) + 1
    return counts


class ReferenceClock:
    """Turns wall time into time at one fixed interpreter speed.

    The machines this runs on share their cores: their speed flips by up to
    a factor of two within a tenth of a second, and the share of slow time
    drifts over minutes. That noise would swamp the changes the benchmark is
    meant to show. A fixed pure-Python kernel, run for CAL_BEFORE_S right
    before every operation and right after it, measures the speed around it;
    the operation's wall time is scaled by CAL_REF_S over the mean kernel
    time. After a long operation the kernel runs for CAL_SHARE of its
    duration, so that the mean covers a slice of the machine's speed and not
    one instant. The kernel uses builtins only and runs with the garbage
    collector off, so nothing the package does changes its time.
    """

    def __init__(self):
        self.kernel_s = []
        self.before = (0.0, 0)

    def measure(self, seconds):
        """Kernel time and run count over at least one run and about ``seconds``."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            runs = 0
            start = time.perf_counter()
            while True:
                _kernel()
                runs += 1
                elapsed = time.perf_counter() - start
                if elapsed >= seconds:
                    break
        finally:
            if enabled:
                gc.enable()
        self.kernel_s.append(elapsed / runs)
        return elapsed, runs

    def start(self):
        """Call right before the operation to be timed."""
        self.before = self.measure(CAL_BEFORE_S)

    def scaled(self, wall):
        """Reference-speed time of the operation that just took ``wall`` seconds."""
        after = self.measure(min(CAL_MAX_S, CAL_SHARE * wall))
        kernel = (self.before[0] + after[0]) / (self.before[1] + after[1])
        return wall * CAL_REF_S / kernel


def run_ops(workload, ops, outcome, clock, keep_text=False):
    """Run ops back to back; check each outside its timed interval.

    Returns wall and reference-speed latencies, and the output texts if kept.
    """
    latencies = []
    scaled = []
    texts = []
    for op in ops:
        clock.start()
        start = time.perf_counter()
        try:
            result = workload.run(op)
        except Exception as exc:  # a raising operation is a failed one
            result = exc
        latencies.append(time.perf_counter() - start)
        scaled.append(clock.scaled(latencies[-1]))
        outcome["attempted"] += 1
        ok = False
        text = None
        if not isinstance(result, Exception):
            try:
                ok = workload.check(op, result)
                text = workload.output_text(op, result)
            except Exception:  # a malformed answer is a wrong one
                ok = False
        if not ok:
            outcome["failed"] += 1
        if keep_text:
            texts.append(text)
    return latencies, scaled, texts


def run_units(workload, first, seconds, outcome, min_units, clock):
    """Whole units until the operation wall time reaches ``seconds``.

    Returns the reference-speed latencies of each op key, the first unit's
    output texts, the number of units run and their wall time.
    """
    by_key = {}
    unit_texts = None
    timed = 0.0
    index = 0
    ops = first
    while True:
        latencies, scaled, texts = run_ops(workload, ops, outcome, clock, keep_text=index == 0)
        for op, latency in zip(ops, scaled):
            by_key.setdefault(op.key, []).append(latency)
        timed += sum(latencies)
        if index == 0:
            unit_texts = texts
        index += 1
        if timed >= seconds and index >= min_units:
            return by_key, unit_texts, index, timed
        ops = workload.unit(index)


def end_to_end(by_key, setup_s):
    """Repeats of identical work count once, at their median, so that a slow
    stretch of the machine during one repeat moves no metric."""
    typical = [statistics.median(v) for v in by_key.values()]
    return {
        "ops_per_s": len(typical) / sum(typical),
        "op_p50_ms": statistics.median(typical) * 1e3,
        "op_p90_ms": statistics.quantiles(typical, n=10, method="inclusive")[8] * 1e3,
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def digest(keys, texts):
    """Hash of one unit's outputs, in key order, so the seed's ordering drops out."""
    h = hashlib.sha256()
    for key, text in sorted(zip(keys, texts)):
        h.update(f"{key}\n{text}\n".encode())
    return h.hexdigest()


def check_digest(workload, seed, first, texts, reference):
    """Compare the first unit's outputs with the reference; None if none stored."""
    if None in texts:
        return False
    ref = reference.get(workload.name, {})
    expected = ref.get("any") or ref.get(str(seed))
    if expected is None:
        return None
    return digest([op.key for op in first], texts) == expected


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, workload, units):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "commit": git_commit(),
        "budget_bits": BUDGET_BITS,
        "units_run": units,
        "inputs": workload.sizes(),
    }


def measure(args):
    clock = ReferenceClock()
    times = []
    for _ in range(SETUP_REPEATS):
        workload = first = reference = None
        gc.collect()  # drop the previous import's cycles before timing the next
        clock.start()
        elapsed, workload, first, reference = setup(args.workload, args.seed)
        times.append(clock.scaled(elapsed))
    setup_s = statistics.median(times)
    gc.collect()
    record = {"setup_times_s": times}
    outcome = {"attempted": 0, "failed": 0}

    if args.trace:
        by_key, texts, units, _ = run_units(workload, first, args.seconds / 2, outcome, 1, clock)
        untraced_s = sum(by_key[op.key][0] for op in first)
        tracer = Tracer(workload.sc)
        tracer.install()
        stale = tracer.stale_bindings()
        traced_results = []
        traced_lat = []
        try:
            for op_id, op in enumerate(first):
                tracer.op = op_id
                clock.start()
                start = time.perf_counter()
                try:
                    result = workload.run(op)
                except Exception as exc:
                    result = exc
                traced_lat.append(clock.scaled(time.perf_counter() - start))
                traced_results.append(result)
        finally:
            tracer.uninstall()
        outcome["attempted"] += len(first)
        same = 0
        for op, result, text in zip(first, traced_results, texts):
            try:
                if not isinstance(result, Exception) and workload.output_text(op, result) == text:
                    same += 1
                    continue
            except Exception:
                pass
            outcome["failed"] += 1
        metrics = tracer.metrics(untraced_s / sum(traced_lat))
        units_meta = {"untraced_units": units, "traced_ops": len(first)}
        record["stale_bindings"] = stale
        record["traced_outputs_identical"] = same == len(first)
        spans = tracer.span_record()
        correct_extra = not stale and same == len(first)
    else:
        by_key, texts, units, wall = run_units(workload, first, args.seconds, outcome, MIN_UNITS, clock)
        metrics = end_to_end(by_key, setup_s)
        ops = sum(len(v) for v in by_key.values())
        units_meta = {"units": units, "ops": ops, "distinct_ops": len(by_key)}
        record["wall_ops_per_s"] = ops / wall
        spans = None
        correct_extra = True

    digest_ok = check_digest(workload, args.seed, first, texts, reference)
    record.update({
        "kernel_ms": {
            "median": statistics.median(clock.kernel_s) * 1e3,
            "min": min(clock.kernel_s) * 1e3,
            "max": max(clock.kernel_s) * 1e3,
            "samples": len(clock.kernel_s),
        },
        "provenance": provenance(args, workload, units_meta),
        "digest_match": digest_ok,
        "fail_ratio": outcome["failed"] / outcome["attempted"],
        "metrics": metrics,
    })
    correct = outcome["failed"] == 0 and digest_ok is not False and correct_extra
    return correct, outcome, metrics, record, spans


def units_of(trace):
    if trace:
        return {name: unit for name, unit, _ in PER_LAYER}
    return dict(END_TO_END)


def write_record(args, record, spans):
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if spans is not None:
        with open(OUT / f"{stem}-spans.json", "w") as fh:
            json.dump(spans, fh, separators=(",", ":"))


def run_one(args):
    correct, outcome, metrics, record, spans = measure(args)
    write_record(args, record, spans)
    units = units_of(args.trace)
    print(f"# provenance {json.dumps(record['provenance'], sort_keys=True)}")
    for name, value in metrics.items():
        print(f"{name:<45} {value:>16.6f} {units[name]}")
    print(f"{'fail_ratio':<45} {record['fail_ratio']:>16.6f} ratio"
          f"  ({outcome['failed']} of {outcome['attempted']} operations)")
    print(f"{'digest_match':<45} {record['digest_match']!s:>16}")
    result = {
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)


def run_all(args):
    """Each workload in its own fresh process, so memory and caches do not leak."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SetupError(f"workload {name} exited with {proc.returncode}")
        print(f"== {name}")
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined), flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # The budget is passed explicitly everywhere; a stray override must not leak in.
    os.environ.pop("CACTUS_BUDGET_BITS", None)
    sys.path.insert(0, str(SRC))
    try:
        if args.workload == "all":
            run_all(args)
        else:
            run_one(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
