"""The benchmark's own test. Run from the repository root:

    python3 bench/selftest.py

It checks that BENCHMARK.json, the metric tables and predictions.json agree;
that the same seed gives the same inputs and another seed different inputs
with the same size mix; that the tracer leaves no binding of a traced
function unwrapped and restores all of them; that short untraced and traced
runs of every workload are correct, match the reference digests, and give
zero and nonzero per-layer metrics exactly where predictions.json says; and
that the command fails without a result when the package is missing. It
takes a few minutes and exits 1 on the first failed check.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys

import run
from tracer import PER_LAYER, Tracer


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        sys.exit(1)


def fingerprint(name, seed, units=2):
    workload = run.WORKLOADS[name](run.load_package(), seed)
    h = hashlib.sha256()
    for index in range(units):
        for op in workload.unit(index):
            h.update(f"{op.key}|{op.args!r}\n".encode())
    return h.hexdigest(), json.dumps(workload.sizes(), sort_keys=True, default=list)


def invoke(cwd, *args):
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def last_json(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main():
    os.environ.pop("CACTUS_BUDGET_BITS", None)
    sys.path.insert(0, str(run.SRC))
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    with open(run.HERE / "predictions.json") as fh:
        predictions = json.load(fh)
    nonzero_on = {
        metric: set(where)
        for layer in predictions["layers"].values()
        for metric, where in layer["metrics"].items()
    }

    check([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json lists the four workloads")
    check([(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END),
          "BENCHMARK.json end_to_end matches run.py")
    check([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(PER_LAYER),
          "BENCHMARK.json per_layer matches tracer.py")
    check(set(nonzero_on) == {name for name, _, _ in PER_LAYER},
          "predictions.json covers every per-layer metric")

    for name in run.WORKLOADS:
        first, sizes = fingerprint(name, 1)
        again, sizes_again = fingerprint(name, 1)
        other, sizes_other = fingerprint(name, 2)
        check(first == again and sizes == sizes_again, f"{name}: same seed, same inputs")
        check(first != other and sizes == sizes_other,
              f"{name}: another seed, other inputs with the same size mix")

    sc = run.load_package()
    tracer = Tracer(sc)
    tracer.install()
    stale = tracer.stale_bindings()
    check(not stale, f"tracer wraps every binding of a traced name {stale[:3]}")
    tracer.uninstall()
    wrapped = [
        f"{mod.__name__}.{attr}"
        for mod in (sc, sc.cli, sc.suites, sc.cactus, sc.celldiag, sc.youngt, sc.clifford)
        for attr, value in vars(mod).items()
        if hasattr(value, "__wrapped__")
    ]
    check(not wrapped, f"tracer restores every binding {wrapped[:3]}")

    for name in run.WORKLOADS:
        for trace in (0, 1):
            proc = invoke(run.ROOT, "--workload", name, "--seed", "1",
                          "--seconds", "0.1", "--trace", str(trace))
            result = last_json(proc)
            check(proc.returncode == 0 and result is not None,
                  f"{name} trace={trace}: exits 0 with a result")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{name} trace={trace}: correct, no failed operations")
            with open(run.OUT / f"{name}-seed1-trace{trace}.json") as fh:
                record = json.load(fh)
            check(record["digest_match"] is True, f"{name} trace={trace}: outputs match the reference")
            metrics = result["metrics"]
            if trace == 0:
                check(list(metrics) == [n for n, _ in run.END_TO_END]
                      and all(m["value"] > 0 for m in metrics.values()),
                      f"{name}: every end-to-end metric reported and nonzero")
                continue
            check(record["traced_outputs_identical"], f"{name}: traced outputs equal untraced ones")
            check(list(metrics) == [n for n, _, _ in PER_LAYER], f"{name}: every per-layer metric reported")
            wrong = [
                metric
                for metric, value in metrics.items()
                if (value["value"] != 0) != (name in nonzero_on[metric])
            ]
            check(not wrong, f"{name}: zero/nonzero per-layer metrics as predicted {wrong}")

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = invoke(bare, "--workload", "act", "--seed", "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the package: nonzero exit and no result")


if __name__ == "__main__":
    main()
