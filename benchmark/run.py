"""Benchmark for kopt12: three workloads, end-to-end metrics, and a traced run per layer.

Run from the repository root:

    python3 benchmark/run.py --workload plain --seed 42 --seconds 40 --trace 0

--trace 0 repeats passes of the workload for about --seconds seconds and
reports the end-to-end metrics named in BENCHMARK.json.  --trace 1 runs one
untraced pass and then one pass with every public kopt12 function wrapped
(see tracer.py), and reports the per-layer metrics.  Every output is checked;
the last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The full record of a run, with machine
information, goes to benchmark/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

# Every workload is single-threaded; keep numeric libraries from starting
# thread pools that would only compete for the two shared cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DEFAULT_SEED = 42
SETUP_SAMPLES = 9
clock = time.perf_counter


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument(
        "--setup-only",
        action="store_true",
        help="time import plus input generation, print it and exit (used for setup_s samples)",
    )
    return p.parse_args(argv)


def setup(workload: str, seed: int):
    """Import kopt12 from this checkout and build the pass-0 inputs; return them timed."""
    if not (SRC / "kopt12" / "__init__.py").is_file():
        raise LookupError(f"no kopt12 package under {SRC.relative_to(ROOT)}/")
    sys.path.insert(0, str(SRC))
    t0 = clock()
    import kopt12

    w = WORKLOADS[workload](kopt12, seed)
    ops = w.ops(0)
    elapsed = clock() - t0
    if Path(kopt12.__file__).resolve().parent != SRC / "kopt12":
        raise LookupError(f"kopt12 was imported from {kopt12.__file__}, not this checkout")
    return kopt12, w, ops, elapsed


def setup_samples(args: argparse.Namespace, own: float) -> list[float]:
    """This process's setup time plus that of fresh processes doing only set-up."""
    samples = [own]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def run_pass(ops) -> list[tuple[object, object, float]]:
    results = []
    for op in ops:
        t0 = clock()
        out = op.call()
        results.append((op, out, clock() - t0))
    return results


def digest(results) -> str:
    text = "".join(line + "\n" for op, out, _ in results for line in op.lines(out))
    return hashlib.sha256(text.encode()).hexdigest()


def check(results) -> tuple[int, int]:
    attempted = sum(op.attempted for op, _, _ in results)
    failed = sum(op.check(out) for op, out, _ in results)
    return attempted, failed


def add_times(times: dict[tuple[str, str], list[float]], results) -> None:
    """Append each operation's wall time to its (phase, slot) list."""
    for op, _, dt in results:
        times.setdefault((op.phase, op.slot), []).append(dt)


def phase_medians(times: dict[tuple[str, str], list[float]]) -> dict[str, float]:
    """Per phase, the sum over its slots of each slot's median time."""
    out = {"certify": 0.0, "descent": 0.0, "sweep": 0.0}
    for (phase, _), values in times.items():
        out[phase] += statistics.median(values)
    return out


def expected_digest(workload: str, seed: int) -> str | None:
    if seed != DEFAULT_SEED:
        return None
    return json.loads((HERE / "expected_digests.json").read_text())[workload]


def machine_info() -> dict[str, object]:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def untraced_run(args, w, ops0) -> tuple[dict, int, int, dict]:
    # Each pass is checked and dropped before the next, so the process's
    # peak memory does not grow with the number of passes.
    times: dict[tuple[str, str], list[float]] = {}
    totals: list[float] = []
    attempted = failed = 0
    first_digest = None
    ops = ops0
    start = clock()
    while True:
        results = run_pass(ops)
        add_times(times, results)
        totals.append(sum(dt for _, _, dt in results))
        a, f = check(results)
        attempted, failed = attempted + a, failed + f
        first_digest = first_digest or digest(results)
        del results
        if clock() - start + statistics.median(totals) > args.seconds:
            break
        ops = w.ops(len(totals))
    phases = phase_medians(times)
    metrics = {
        "pass_s": sum(phases.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **{f"{phase}_s": value for phase, value in phases.items()},
    }
    detail = {
        "passes": len(totals),
        "pass_totals": totals,
        "slot_times": {slot: values for (_, slot), values in times.items()},
        "pass0_digest": first_digest,
    }
    return metrics, attempted, failed, detail


def traced_run(args, K, ops0) -> tuple[dict, int, int, dict]:
    from tracer import Tracer

    plain = run_pass(ops0)
    tracer = Tracer(K)
    tracer.install()
    try:
        # Rebuild the inputs under the tracer so generation shows in its layer.
        traced = run_pass(WORKLOADS[args.workload](K, args.seed).ops(0))
    finally:
        tracer.remove()
    attempted, failed = check(plain)
    attempted += sum(op.attempted for op, _, _ in traced)
    plain_digest, traced_digest = digest(plain), digest(traced)
    if traced_digest != plain_digest:
        failed += 1
    times: dict[tuple[str, str], list[float]] = {}
    add_times(times, plain)
    phases = phase_medians(times)
    metrics = {
        **tracer.summary(),
        **{f"{phase}_s": value for phase, value in phases.items()},
        "trace_overhead_s": sum(dt for _, _, dt in traced) - sum(phases.values()),
        "moves.scan_peak_mb": tracer.scan_peak_mb(),
    }
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.npz")
    detail = {"passes": 1, "pass0_digest": plain_digest, "traced_digest": traced_digest}
    return metrics, attempted, failed, detail


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        K, w, ops0, own_setup = setup(args.workload, args.seed)
    except (LookupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    if args.trace:
        measured, attempted, failed, detail = traced_run(args, K, ops0)
        reported = spec["per_layer"]
    else:
        measured, attempted, failed, detail = untraced_run(args, w, ops0)
        measured["setup_s"] = statistics.median(setup_samples(args, own_setup))
        reported = spec["end_to_end"]
    expected = expected_digest(args.workload, args.seed)
    if expected is not None and detail["pass0_digest"] != expected:
        failed += 1

    machine = machine_info()
    print("machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} passes={detail['passes']}")
    if not args.trace:
        units = {"pass_s": "s", "certify_s": "s", "descent_s": "s", "sweep_s": "s",
                 "setup_s": "s", "peak_rss_mb": "MB"}
        for name, unit in units.items():
            print(f"{name}={measured[name]:.6g} {unit}")
        print(f"failed_ratio={failed / attempted:.6g} ({failed}/{attempted})")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in reported}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine, **detail, "measured": measured, "result": result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
