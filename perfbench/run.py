"""Benchmark of the bctransforms library, one workload per process.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``): ``verify-all``, ``coeff-pipeline`` and
``kernel-grid``.  Each is a closed loop with one client in this single
process; inputs come from ``--seed`` and every op's output is checked by
``oracles.py``, which does not use the library.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
``setup_s`` is the median over fresh interpreters of importing the library
and building the first Gauss-Hermite rules (``coldstart.py``), ``peak_rss_mb``
is this process's peak resident set, ``ops_per_s``, ``items_per_s``,
``op_p50_ms`` and ``op_p95_ms`` come from the timed ops, and
``coeff_max_degree`` is the highest rung of the degree ladder that passes
(untimed, and not counted in ``attempted``).

``--trace 1`` times every other op inside spans, then runs the per-layer
probes of ``layers.py``; it reports the per-layer metrics, the traced op
median and the tracing overhead against the untraced ops of the same run.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it records the environment (Python, numpy, nproc, CPU, git
SHA if any, a digest of ``src/``, the seed) and the details.  Both, and the
spans of a traced run, are also written under ``perfbench/out/``.

Exit codes: 0 result printed, 2 no library source or no BENCHMARK.json,
3 an oracle accepted corrupted output, 4 metrics differ from BENCHMARK.json.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: fresh interpreters whose set-up time gives the median ``setup_s``
COLDSTARTS = 5

#: percentile of ``op_p95_ms``: coeff-pipeline and kernel-grid time over 200
#: ops a run, so at least ten lie beyond it; verify-all times only a few, so
#: its value interpolates between its slowest ops
TAIL_PERCENTILE = 95


def fail(message: str, code: int):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec() -> dict:
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as err:
        fail(f"cannot read BENCHMARK.json: {err}", 2)


def import_library():
    sys.path.insert(0, str(SRC))
    import bctransforms

    if not Path(bctransforms.__file__).resolve().is_relative_to(SRC):
        fail(f"bctransforms was imported from {bctransforms.__file__}, not {SRC}", 2)
    return bctransforms


def run_coldstarts() -> list[dict]:
    results = []
    for _ in range(COLDSTARTS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "coldstart.py"), str(SRC)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            fail(f"coldstart exited with {proc.returncode}: {proc.stderr.strip()}", 2)
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


def environment(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            sha = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


class Loop:
    """Closed loop, one client: run ops until the deadline, checking each."""

    def __init__(self, workload, trace: bool):
        from tracing import NullTracer, Tracer

        self.workload = workload
        self.trace = trace
        self.tracer = Tracer()
        self.null = NullTracer()
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: list[tuple[float, bool, int]] = []  # (seconds, traced, items)

    def one(self, i: int, traced: bool):
        tracer = self.tracer if traced else self.null
        t0 = time.perf_counter()
        try:
            out = self.workload.op(i, tracer)
            problem = None
        except Exception as err:  # a failed op is counted, not fatal
            out, problem = None, f"{type(err).__name__}: {err}"
        elapsed = time.perf_counter() - t0
        items = 0
        if problem is None:
            try:
                problem = self.workload.check(i, out)
                items = self.workload.items(i, out)
            except Exception as err:  # malformed output fails the check
                problem = f"check raised {type(err).__name__}: {err}"
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"op {i}: {problem}")
        return elapsed, items

    def run(self, seconds: float) -> None:
        i = 0
        for _ in range(self.workload.warmup):
            self.one(i, False)
            i += 1
        deadline = time.perf_counter() + seconds
        while True:
            # a traced run alternates untraced and traced ops, and needs one of each
            traced = self.trace and len(self.samples) % 2 == 1
            elapsed, items = self.one(i, traced)
            self.samples.append((elapsed, traced, items))
            i += 1
            if time.perf_counter() >= deadline and (not self.trace or len(self.samples) >= 2):
                break

    def times(self, traced: bool) -> list[float]:
        return [s for s, t, _ in self.samples if t == traced]


def tail(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[TAIL_PERCENTILE - 1]


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bctransforms" / "__init__.py").is_file():
        fail(f"no library source at {SRC / 'bctransforms'}", 2)
    import oracles

    problems = oracles.selftest()
    if problems:
        fail("oracle self-test: " + "; ".join(problems), 3)

    coldstarts = run_coldstarts()
    bt = import_library()
    import workloads

    workload = workloads.WORKLOADS[args.workload](bt, args.seed)
    loop = Loop(workload, bool(args.trace))
    loop.run(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failures = loop.attempted + len(coldstarts), list(loop.failures)
    failures += [f"coldstart: {c['problem']}" for c in coldstarts if c["problem"]]
    detail: dict = {
        "workload": args.workload,
        "trace": args.trace,
        "env": environment(args.seed),
        "ops_timed": len(loop.samples),
        "tail_percentile": TAIL_PERCENTILE,
    }
    OUT.mkdir(exist_ok=True)

    if not args.trace:
        lat = loop.times(False)
        busy = sum(lat)
        max_degree, ladder = workloads.max_degree(bt, args.seed)
        detail["ladder"] = ladder
        metrics = {
            "setup_s": statistics.median(c["setup_s"] for c in coldstarts),
            "peak_rss_mb": peak_rss_mb,
            "ops_per_s": len(lat) / busy,
            "items_per_s": sum(n for _, _, n in loop.samples) / busy,
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_p95_ms": tail(lat) * 1e3,
            "coeff_max_degree": max_degree,
        }
    else:
        import layers
        from tracing import Tracer

        traced, plain = loop.times(True), loop.times(False)
        n_traced = len(traced)
        detail["self_ms_per_traced_op"] = {
            module: s * 1e3 / n_traced for module, s in loop.tracer.module_self_s().items()
        }
        probe_tracer = Tracer()
        probes = layers.Probes(bt, args.seed, probe_tracer)
        probes.run(coldstarts)
        attempted += probes.attempted
        failures += probes.failures
        metrics = dict(probes.metrics)
        metrics["trace.op_p50_ms"] = statistics.median(traced) * 1e3
        metrics["trace.overhead_pct"] = (statistics.median(traced) / statistics.median(plain) - 1.0) * 100.0
        stem = f"{args.workload}-seed{args.seed}"
        loop.tracer.write(OUT / f"{stem}-workload-spans.json")
        probe_tracer.write(OUT / f"{stem}-probe-spans.json")

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(units) != set(metrics):
        fail(
            f"metrics differ from BENCHMARK.json {section}: missing {sorted(set(units) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(units))}",
            4,
        )
    detail["failures"] = failures[:20]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1, default=str)
    print(json.dumps(detail, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
