"""cotesroot benchmark: one seeded workload, measured as a closed loop.

    python3 perfbench/run.py --workload lowprec --seed 1 --seconds 20 --trace 0

One client sends the next op only after the previous one finished; no
threads, since mpmath precision is process-global.  The loop runs whole
passes over the workload's op types, each pass with fresh seeded start
points, until ``--seconds`` have passed.  Every op is checked against an
oracle that does not use cotesroot.  Times are reported at a reference
host speed: a calibration kernel that does not use cotesroot is timed between
ops and each op's time is scaled by it (see ``calibration.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half the
time untraced and half traced, then replays the first traced pass's inputs
through each layer's public functions and prints the per-layer metrics,
including the tracing overhead (traced minus untraced median op time).  The
last line of standard output is the JSON result; a run record, and with
``--trace 1`` the spans, are written to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

try:
    import calibration
    import workloads
except ImportError as exc:  # no cotesroot under src/: nothing to measure
    sys.exit(f"cannot load cotesroot from {ROOT / 'src'}: {exc}")
SETUP_RUNS = 9
WORKLOAD_NAMES = ("lowprec", "highprec", "tables", "vector")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit() -> str:
    """The commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Cold set-up times, each in a fresh interpreter: import, parse, build, warm up.

    Returns the raw times and the times at the reference speed, each scaled
    by the calibration kernel timed in the same interpreter after set-up.
    """
    probe = HERE / "setup_probe.py"
    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        done = subprocess.run([sys.executable, str(probe), workload, str(seed)],
                              cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        seconds, kernel = map(float, done.stdout.strip().splitlines()[-1].split())
        raw.append(seconds)
        scaled.append(seconds * calibration.REFERENCE_S / kernel)
    return raw, scaled


class Loop:
    """Results of one closed-loop measurement."""

    def __init__(self):
        self.times: list[float] = []  # raw seconds per op
        self.marks: list[tuple[int, float]] = []  # (ops done, calibration kernel seconds)
        self.by_type: dict[str, list[float]] = {}
        self.records: list[tuple] = []  # (pass index, op, output, seconds)
        self.outcomes: list = []  # first pass only: what the digest covers
        self.failures: list[str] = []
        self.wrong = 0
        self.passes = 0

    def scaled(self) -> list[float]:
        """Seconds per op at the reference host speed."""
        return calibration.scaled(self.times, self.marks)


def measure(w, seconds: float, tracer, keep_records: bool) -> Loop:
    loop = Loop()
    deadline = time.perf_counter() + seconds
    calibrated = -calibration.INTERVAL_S
    while True:
        ops = w.first_pass if loop.passes == 0 else w.plan(loop.passes)
        for op in ops:
            if time.perf_counter() - calibrated >= calibration.INTERVAL_S:
                loop.marks.append((len(loop.times), calibration.kernel_seconds()))
                calibrated = time.perf_counter()
            start = time.perf_counter()
            try:
                with tracer.span("op"):
                    out = w.run(op, tracer)
            except Exception:  # an op must end in a recorded termination
                elapsed = time.perf_counter() - start
                outcome = workloads.Outcome(True, True, f"{op}|raised",
                                            f"{op}: raised\n{traceback.format_exc()}")
                out = None
            else:
                elapsed = time.perf_counter() - start
                outcome = w.check(op, out)
            loop.times.append(elapsed)
            loop.by_type.setdefault(w.op_type(op), []).append(elapsed)
            if keep_records and out is not None:
                loop.records.append((loop.passes, op, out, elapsed))
            if loop.passes == 0:
                loop.outcomes.append(outcome)
            if outcome.failed:
                loop.failures.append(outcome.detail)
            loop.wrong += outcome.wrong
        loop.passes += 1
        if time.perf_counter() >= deadline:
            loop.marks.append((len(loop.times), calibration.kernel_seconds()))
            return loop


def p50_ms(times: list[float]) -> float:
    return 1e3 * statistics.median(times)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    import mpmath

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
        "commit": git_commit(),
    }
    w = workloads.make(args.workload, args.seed)
    if not args.trace:
        setup_raw, setup = setup_seconds(args.workload, args.seed)
        record["setup_s_runs"] = setup
        record["setup_s_raw_runs"] = setup_raw
    w.setup()
    w.prepare_oracle()
    calibration.warm_up()

    if args.trace:
        untraced = measure(w, args.seconds / 2, workloads.NoTracer(), keep_records=False)
        tracer = workloads.Tracer()
        w.use_tracer(tracer)
        loop = measure(w, args.seconds / 2, tracer, keep_records=True)
        layers = dict.fromkeys(workloads.LAYER_METRICS, 0)
        layers.update(w.layer_metrics(loop.records, tracer))
        layers["trace.overhead_ms"] = p50_ms(loop.scaled()) - p50_ms(untraced.scaled())
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, (unit, _) in workloads.LAYER_METRICS.items()}
        attempted = len(untraced.times) + len(loop.times)
        failures = untraced.failures + loop.failures
        wrong = untraced.wrong + loop.wrong
        record["spans"] = tracer.spans
    else:
        loop = measure(w, args.seconds, workloads.NoTracer(), keep_records=False)
        times = loop.scaled()
        values = {
            "ops_per_s": len(times) / sum(times),
            "op_ms.p50": p50_ms(times),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        record["raw"] = {"ops_per_s": len(loop.times) / sum(loop.times),
                         "op_ms.p50": p50_ms(loop.times),
                         "setup_s": statistics.median(setup_raw)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in workloads.END_TO_END.items()}
        attempted = len(loop.times)
        failures = loop.failures
        wrong = loop.wrong

    left_out = w.breakdown_pass()
    record.update({
        "breakdown_pass": {"ops": len(left_out),
                           "failures": [o.detail for o in left_out if o.failed]},
        "passes": loop.passes,
        "op_seconds": loop.times,
        "calibration_marks": loop.marks,
        "op_types": {t: {"n": len(v), "median_ms": p50_ms(v)}
                     for t, v in sorted(loop.by_type.items(), key=lambda kv: p50_ms(kv[1]))},
        "digest": workloads.digest_of(loop.outcomes),
        "first_pass_ops": len(loop.outcomes),
        "attempted": attempted,
        "failed": len(failures),
        "wrong": wrong,
        "failures": failures,
        "metrics": metrics,
        "loadavg_after": os.getloadavg(),
    })
    report(args, record, loop)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1))
    print(f"run record: {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def report(args, record, loop) -> None:
    """Human-readable lines: every metric by name and unit, and every failure."""
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"python={record['python']} mpmath={record['mpmath']} "
          f"backend={record['mpmath_backend']} nproc={record['nproc']} "
          f"commit={record['commit']}")
    print(f"# loadavg before {record['loadavg_before']} after {record['loadavg_after']}")
    print(f"# passes={record['passes']} digest={record['digest']} "
          f"(first pass, {record['first_pass_ops']} ops)")
    for name, m in record["metrics"].items():
        extra = ""
        if name.startswith("solver.apply_per_jet.t"):
            n = int(name.rsplit("t", 1)[1])
            extra = f"  (ladder slope evaluations (n+1)(n+2)/2 = {(n + 1) * (n + 2) // 2})"
        print(f"{name:32s} {m['value']:.6g} {m['unit']}{extra}")
    attempted = record["attempted"]
    print(f"{'fail_frac':32s} {record['failed'] / attempted:.6g} ratio "
          f"({record['failed']} of {attempted}; {record['wrong']} wrong answers)")
    if not args.trace:
        n = len(loop.times)
        if n >= 100:
            p90 = 1e3 * statistics.quantiles(loop.times, n=10)[-1]
            print(f"{'op_ms.p90':32s} {p90:.6g} ms (n={n})")
        else:
            print(f"{'op_ms.p90':32s} not reported: {n} ops, fewer than 100")
        print(f"{'setup_s runs':32s} {', '.join(f'{s:.4f}' for s in record['setup_s_runs'])}")
        raw = ", ".join(f"{k} {v:.6g}" for k, v in record["raw"].items())
        print(f"# unscaled: {raw}; calibration kernel median "
              f"{1e3 * statistics.median(k for _, k in loop.marks):.4g} ms "
              f"(reference {1e3 * calibration.REFERENCE_S:.4g} ms)")
    for t, v in record["op_types"].items():
        print(f"  op type {t:40s} n={v['n']:<5d} median {v['median_ms']:.4g} ms")
    for line in record["failures"]:
        print(f"FAILED {line}")
    left_out = record["breakdown_pass"]
    if left_out["ops"]:
        print(f"# breakdown pass, untimed and outside attempted/failed: "
              f"{len(left_out['failures'])} of {left_out['ops']} left-out ops failed")
    for line in left_out["failures"]:
        print(f"BREAKDOWN {line}")


if __name__ == "__main__":
    sys.exit(main())
