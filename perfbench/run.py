"""equistate benchmark harness.

    python3 perfbench/run.py --workload orbit --seed 1 --seconds 20 --trace 0

Runs one workload (see workloads.py) as a closed loop in this single
process and thread: whole passes over the workload's fixed operation
list, back to back, until --seconds have elapsed (at least three passes,
four when traced).  The operations' outputs are checked afterwards by the
independent oracles in oracles.py.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 prints the end-to-end metrics: medians over the passes of the
run.  --trace 1 alternates untraced and traced passes and prints the
per-layer metrics of the traced passes (see layers.py), the per-kind
operation times of the untraced passes and the tracing overhead.

Times are scaled seconds.  On a shared machine the speed of the CPU a run
gets can change by a factor of 1.7 within seconds, so each operation's
wall time is divided by the wall time of a fixed reference loop run just
before and just after it, and multiplied by that loop's time on the
machine when uncontended.  Per-layer times are wall seconds, with the
reference loop's median wall time beside them (`wall.reference_s`).

The library is imported from src/ of the checkout that holds this file;
without it the harness exits with code 2.  Outputs go to .perfbench_out/.
"""

from __future__ import annotations

import os

# Pin the BLAS/OpenMP pools before numpy is imported: one thread per run.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
API_KINDS = ("measure", "pressure", "distance", "verify")
KINDS = API_KINDS + ("cli",)
# Metric name -> unit.  --trace 0 prints END_TO_END; --trace 1 prints
# layers.LAYER_METRICS and then TRACE_EXTRA.
END_TO_END = {"pass_s": "s", "api_s": "s", "cli_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
TRACE_EXTRA = ([f"ops.{kind}_s" for kind in API_KINDS]
               + ["trace.pass_s", "trace.overhead_s", "wall.reference_s"])
# The reference loop's wall time on this machine when nothing else
# competes for its CPU; scaled seconds then read as wall seconds there.
REFERENCE_ROUNDS = 600
REFERENCE_NOMINAL_S = 0.030
_DYADIC = 1 << 96
IMPORT_PROBE = ("import time; t = time.perf_counter(); import equistate.cli; "
                "print(repr(time.perf_counter() - t))")


def import_seconds() -> float:
    """Time to import the whole package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def parse_args(argv):
    p = argparse.ArgumentParser(description="equistate benchmark")
    p.add_argument("--workload", required=True, choices=("orbit", "pressure", "transport_tiles"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class _Failed:
    """Stands in for the output of an operation that raised; equal to
    nothing but itself."""


def reference_seconds() -> float:
    """Wall time of a fixed exact-arithmetic loop that does not touch
    equistate: Newton steps for square roots on Fractions, rounded to
    96-bit dyadics, which is the kind of work the library does.  The
    collector is off, so the program's heap does not change it."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for k in range(1, REFERENCE_ROUNDS + 1):
            y = Fraction(k % 97 + 1, 3)
            c = Fraction(2 * k + 1, k)
            for _ in range(6):
                y = (y + c / y) / 2
                y = Fraction(round(y * _DYADIC), _DYADIC)
        return time.perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()


def run_pass(ops, workload, tracer):
    """One pass over `ops`.  Each operation's wall time is scaled by
    REFERENCE_NOMINAL_S over the mean of the reference loops run just
    before and just after it (see the module docstring)."""
    from workloads import Segments

    workload.before_pass()
    outputs, errors = [], {}
    kinds = {k: 0.0 for k in KINDS}
    wall_pass = pass_s = 0.0
    op_walls = {}
    refs = [reference_seconds()]
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        for op in ops:
            seg = Segments()
            t0 = time.perf_counter()
            try:
                outputs.append(op.run(seg))
            except Exception:  # an operation that raises is counted as failed
                errors[op.name] = traceback.format_exc()
                outputs.append(_Failed())
            wall = time.perf_counter() - t0
            refs.append(reference_seconds())
            scale = REFERENCE_NOMINAL_S / ((refs[-2] + refs[-1]) / 2)
            wall_pass += wall
            pass_s += wall * scale
            op_walls[op.name] = wall
            for kind, seconds in seg.seconds.items():
                kinds[kind] += seconds * scale
    finally:
        if tracer is not None:
            tracer.uninstall()
    record = {"traced": tracer is not None, "pass_s": pass_s, "wall_pass_s": wall_pass,
              "reference_s": refs, "op_wall_s": op_walls, "kinds": kinds, "errors": errors}
    if tracer is not None:
        record["layers"] = tracer.snapshot()
    return record, outputs


def scaled_setup(workload, seed: int, out_dir: str):
    """One set-up (fresh-interpreter import plus input generation),
    scaled like the operations.  Returns (seconds, inputs)."""
    before = reference_seconds()
    imp = import_seconds()
    t0 = time.perf_counter()
    inputs = workload.setup(seed, out_dir)
    wall = imp + time.perf_counter() - t0
    after = reference_seconds()
    return wall * REFERENCE_NOMINAL_S / ((before + after) / 2), inputs


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "equistate" / "__init__.py").is_file():
        print(f"perfbench: no equistate package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import equistate

    if Path(equistate.__file__).resolve().parent != (SRC / "equistate").resolve():
        print(f"perfbench: equistate imported from {equistate.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import layers
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    out_dir = OUT_ROOT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)

    setups = []
    for _ in range(SETUP_REPEATS):
        seconds, inputs = scaled_setup(workload, args.seed, str(out_dir))
        setups.append(seconds)
    ops = workload.operations(inputs)

    tracer = layers.Tracer() if args.trace else None
    min_passes = 4 if args.trace else 3
    records = []
    distinct: list[list] = [[] for _ in ops]  # distinct outputs per operation
    pass_outputs: list[list[int]] = []  # index into `distinct` per op, per pass
    start = time.perf_counter()
    while True:
        traced = tracer if args.trace and len(records) % 2 == 1 else None
        record, outputs = run_pass(ops, workload, traced)
        records.append(record)
        idx = []
        for k, out in enumerate(outputs):
            for j, seen in enumerate(distinct[k]):
                if out == seen:
                    idx.append(j)
                    break
            else:
                distinct[k].append(out)
                idx.append(len(distinct[k]) - 1)
        pass_outputs.append(idx)
        for name, tb in record["errors"].items():
            print(f"perfbench: {name} raised\n{tb}", file=sys.stderr)
        if len(records) >= min_passes and time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Independent checks, one per distinct output of each operation.
    problems: dict[str, list[str]] = {}
    rejected = [[False] * len(d) for d in distinct]
    for k, op in enumerate(ops):
        for j, out in enumerate(distinct[k]):
            if isinstance(out, _Failed):
                rejected[k][j] = True
                continue
            try:
                found = op.check(out)
            except Exception:  # a check that cannot complete rejects the output
                found = ["check raised: " + traceback.format_exc()]
            if found:
                rejected[k][j] = True
                problems.setdefault(op.name, []).extend(found)
    for name, found in problems.items():
        print(f"perfbench: {name}: {'; '.join(found)}", file=sys.stderr)
    attempted = len(records) * len(ops)
    failed = sum(rejected[k][j] for idx in pass_outputs for k, j in enumerate(idx))
    correct = not problems

    untraced = [r for r in records if not r["traced"]]
    med = statistics.median

    def kind_median(recs, kinds):
        return med(sum(r["kinds"][k] for k in kinds) for r in recs)

    if args.trace:
        traced_recs = [r for r in records if r["traced"]]
        values = {m: med(r["layers"][m] for r in traced_recs) for m in layers.LAYER_METRICS}
        for kind in API_KINDS:
            values[f"ops.{kind}_s"] = kind_median(untraced, [kind])
        values["trace.pass_s"] = med(r["pass_s"] for r in traced_recs)
        values["trace.overhead_s"] = values["trace.pass_s"] - med(r["pass_s"] for r in untraced)
        values["wall.reference_s"] = med(t for r in records for t in r["reference_s"])
        units = {m: layers.unit_of(m) for m in layers.LAYER_METRICS}
        units.update({m: "s" for m in TRACE_EXTRA})
    else:
        values = {
            "pass_s": med(r["pass_s"] for r in untraced),
            "api_s": kind_median(untraced, API_KINDS),
            "cli_s": kind_median(untraced, ["cli"]),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": med(setups),
        }
        units = END_TO_END

    detail = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "operations": [op.name for op in ops],
              "setup_s": setups, "passes": records, "problems": problems}
    with open(out_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, default=str)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
