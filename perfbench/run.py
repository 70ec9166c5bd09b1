"""Benchmark of the tpc verifier, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see BENCHMARK.json for why each exists): sweep3x3, optimize3x3,
counterexample, tables2x2.  Each is a closed loop with one client in one
single-threaded process: the next ``tpc.cli.main`` call starts when the last
one returns, and every output is checked (workloads.py).

``--trace 0`` measures the end-to-end metrics with nothing wrapped.  Every
timing is normalized to a nominal host speed by a reference kernel timed
between operations (reference.py); the measured wall times go in the detail
line beside it.
``--trace 1`` alternates untraced and traced cycles of the same operations
and reports per-layer metrics per operation (tracing.py), plus the tracing
overhead; its spans go to ``perfbench/out/``.

The last line of stdout is the result object; the line before it holds the
environment record and the details behind the metrics.
"""

import os

# One BLAS thread and default tolerances, fixed before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("TPC_TOL_OVERRIDE", None)

import argparse
import contextlib
import ctypes
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import reference
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 7
SETUP_REF_SAMPLES = 40    # kernel runs on each side of a cold start
TAIL_BEYOND = 10
MIN_OPS = 2 * TAIL_BEYOND + 1      # so the tail percentile is above the median
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def tail_latency(samples) -> tuple[float, float, int]:
    """The highest percentile, up to p80, with at least TAIL_BEYOND samples
    beyond it: the sample at that percentile, the percentile, and how many
    samples rank above it.

    The cap keeps long runs of short operations from reporting a percentile
    that stalls of the host decide: those last a fraction of one operation,
    too short for the reference kernel to see.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples, got {n}")
    beyond = max(TAIL_BEYOND, n // 5)
    return xs[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


# --- environment record ---------------------------------------------------

def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _blas_threads() -> int | None:
    """Thread count reported by the BLAS library loaded in this process."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({ln.split()[-1] for ln in maps.splitlines() if "blas" in ln.lower() and "/" in ln})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    git = ROOT / ".git"
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


# --- measurement ----------------------------------------------------------

class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)


def timed_op(cli, op) -> tuple[int, str | None]:
    """Run one operation; return its latency in ns and its check verdict."""
    t0 = time.perf_counter_ns()
    try:
        rc, out = workloads.run_op(cli, op)
    except Exception as exc:  # a crashing call is a failed operation, not a crashed run
        return time.perf_counter_ns() - t0, f"{op.argv}: raised {exc!r}"
    elapsed = time.perf_counter_ns() - t0
    reason = workloads.check(op, rc, out)
    return elapsed, None if reason is None else f"{op.argv}: {reason}"


def setup_times(workload: str, seed: int, tally: Tally, ref: reference.Reference):
    """Wall time (s) of SETUP_REPEATS cold starts (setup_probe.py), one at a
    time, measured and normalized by the kernel runs just before and after."""
    times, normalized = [], []
    for _ in range(SETUP_REPEATS):
        first = len(ref.ms)
        ref.sample(SETUP_REF_SAMPLES)
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
        times.append(time.perf_counter() - t0)
        ref.sample(SETUP_REF_SAMPLES)
        normalized.append(times[-1] * reference.REF_MS / statistics.median(ref.ms[first:]))
        tally.record(None if proc.returncode == 0 else f"setup probe: {proc.stderr.strip()[-300:]}")
    return times, normalized


def closed_loop(cli, cycle, seconds: float, tally: Tally, ref: reference.Reference):
    """Run the cycle round and round, with the reference kernel between
    operations, until ``seconds`` have passed and at least MIN_OPS
    operations are done; return their start times (ns) and latencies (ms)."""
    starts, latencies = [], []
    t_start = time.perf_counter()
    while True:
        starts.append(time.perf_counter_ns())
        elapsed, reason = timed_op(cli, cycle[len(latencies) % len(cycle)])
        latencies.append(elapsed / 1e6)
        tally.record(reason)
        ref.keep_up(elapsed)
        if len(latencies) >= MIN_OPS and time.perf_counter() - t_start >= seconds:
            return starts, latencies


def traced_loop(cli, cycle, seconds: float, tally: Tally, tracer: tracing.Tracer):
    """Alternate untraced and traced passes over the whole cycle, changing
    which goes first each round, until ``seconds`` have passed.  Returns the
    number of traced operations and the untraced and traced op time in ns."""
    ops = 0
    wall_ns = {False: 0, True: 0}
    t_start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - t_start < seconds:
        for traced in ((False, True) if rounds % 2 == 0 else (True, False)):
            with tracer if traced else contextlib.nullcontext():
                for op in cycle:
                    if traced:
                        tracer.op = ops
                        ops += 1
                    elapsed, reason = timed_op(cli, op)
                    wall_ns[traced] += elapsed
                    tally.record(reason)
        rounds += 1
    return ops, wall_ns[False], wall_ns[True]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tpc" / "__init__.py").is_file():
        print(f"error: no tpc package under {ROOT / 'src'}; run from a tpc checkout", file=sys.stderr)
        return 2
    load_before = os.getloadavg()[0]
    OUT.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}

    for _ in range(SETUP_REF_SAMPLES):  # warm-up of the reference kernel
        reference.kernel()
    if not args.trace:
        setup_raw, setup = setup_times(args.workload, args.seed, tally, reference.Reference())
    sys.path.insert(0, str(ROOT / "src"))
    from tpc import cli

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        cycle = workloads.build_cycle(args.workload, args.seed, Path(tmp))
        for op in cycle:  # warm-up: one untimed pass over the cycle
            tally.record(timed_op(cli, op)[1])
        if args.trace:
            tracer = tracing.Tracer()
            ops, untraced_ns, traced_ns = traced_loop(cli, cycle, args.seconds, tally, tracer)
            values = tracing.layer_metrics(tracer, ops, traced_ns, traced_ns / untraced_ns - 1.0)
            units = dict(tracing.per_layer_metrics())
            spans = OUT / f"spans-{args.workload}.npz"
            tracer.write(spans)
            detail.update(traced_ops=ops, spans=len(tracer.name), spans_file=str(spans.relative_to(ROOT)))
        else:
            ref = reference.Reference()
            starts, measured = closed_loop(cli, cycle, args.seconds, tally, ref)
            latencies = ref.normalize(starts, measured)
            tail, percentile, beyond = tail_latency(latencies)
            values = {
                "ops_per_s": 1e3 * len(latencies) / sum(latencies),
                "latency_p50_ms": statistics.median(latencies),
                "latency_tail_ms": tail,
                "setup_s": statistics.median(setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = dict(END_TO_END)
            detail.update(
                samples=len(latencies),
                tail_percentile=percentile,
                tail_samples_beyond=beyond,
                setup_s_samples=setup,
                reference_ms_p50=statistics.median(ref.ms),
                reference_samples=len(ref.ms),
                measured=dict(
                    ops_per_s=1e3 * len(measured) / sum(measured),
                    latency_p50_ms=statistics.median(measured),
                    latency_tail_ms=tail_latency(measured)[0],
                    setup_s=statistics.median(setup_raw),
                    setup_s_samples=setup_raw,
                ),
            )

    detail.update(
        failed_op_frac=tally.failed / tally.attempted,
        failures=tally.reasons,
        environment=environment(),
        load_avg_1m_before=load_before,
        load_avg_1m_after=os.getloadavg()[0],
    )
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"detail": detail, "result": result}, indent=1) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
