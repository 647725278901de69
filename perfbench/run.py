"""Benchmark for netinfluence: one workload per run, checked, one JSON line out.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload respond --seed 1 --seconds 27 --trace 0

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median wall time
of fresh interpreters that import netinfluence and write the workload's
inputs; one before the first round and one after every round), ``solve_s``
and ``cli_s`` (median per-round wall time of the library calls and of the
in-process CLI invocations, each phase starting with cold table caches) and
``peak_rss_mb``.  ``--trace 1`` wraps the library's public functions and
prints the per-module metrics instead, each a median over rounds.

Rounds repeat while the next one, judged by the last, still ends within
``--seconds``.  Every round runs the same operations, and each operation's
result is checked against ``oracle.py`` and the paper's properties.  The
last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
details go to ``perfbench/_results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_TIMEOUT_S = 150


def load_spec() -> dict:
    """Metric names and units, from BENCHMARK.json at the checkout root."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def clear_caches(tracer=None):
    """Empty every memoizing cache in the library, as a fresh process would have."""
    for mod in [m for name, m in sys.modules.items() if name.startswith("netinfluence")]:
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    if tracer is not None:
        tracer.caches_cleared()


class Tally:
    """Operations attempted and failed; ``wrong`` counts the failed checks among them."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []

    def record(self, name, problems, raised=False):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.wrong += not raised
            self.problems.extend(f"{name}: {p}" for p in problems)


def _checked(tracer, check, result) -> list[str]:
    if tracer is not None:
        tracer.paused = True
    try:
        return list(check(result))
    except Exception as exc:  # a check that cannot read the result fails the operation
        return [f"check failed: {type(exc).__name__}: {exc}"]
    finally:
        if tracer is not None:
            tracer.paused = False


def run_round(wl, cli_module, tally: Tally, tracer=None) -> dict[str, dict[str, float]]:
    """One round: every solve operation, then every CLI operation.

    Returns the wall time of each operation, by phase.
    """
    wl.begin_round()
    clear_caches(tracer)
    gc.collect()
    times = {"solve": {}, "cli": {}}
    for op in wl.solve_ops():
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:
            times["solve"][op.name] = time.perf_counter() - start
            tally.record(op.name, [f"raised {type(exc).__name__}: {exc}"], raised=True)
            continue
        times["solve"][op.name] = time.perf_counter() - start
        tally.record(op.name, _checked(tracer, op.check, result))
    wl.end_solve()

    for op in wl.cli_ops():
        clear_caches(tracer)
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = cli_module.main(op.argv)
            except SystemExit as exc:  # argparse rejects the command line
                status = exc.code
        times["cli"][op.name] = time.perf_counter() - start
        text = out.getvalue()
        if tracer is not None:
            tracer.counts["cli.output_bytes"] += len(text.encode())
        if status != 0:
            tally.record(op.name, [f"exit status {status}: {err.getvalue().strip()}"], raised=True)
            continue
        tally.record(op.name, _checked(tracer, op.check, text.splitlines()))
    return times


def time_setup(args, out: Path) -> float:
    """Wall time of one fresh interpreter that imports netinfluence and writes the inputs."""
    cmd = [sys.executable, str(HERE / "gen.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(out), "--size", args.size]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed with status {proc.returncode}: {proc.stderr.strip()}")
    return elapsed


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None when it cannot be read."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description="netinfluence benchmark")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="instance sizes; toy is for the benchmark's own tests")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "netinfluence" / "__init__.py").is_file():
        print(f"error: no netinfluence sources under {src}", file=sys.stderr)
        return 2
    os.environ.pop("NETINFLUENCE_WORKERS", None)
    sys.path.insert(0, str(src))

    import gen
    import netinfluence.cli as cli_module
    import tracing
    import workloads

    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results_dir = HERE / "_results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = None
    try:
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            manifest = gen.make(args.workload, args.seed, work, args.size)
            setup_spans, setup_counts = tracer.take()
            setup_times = []
        else:
            setup_times = [time_setup(args, work)]
            manifest = json.loads((work / "manifest.json").read_text(encoding="utf-8"))

        if tracer is not None:
            tracer.paused = True
        wl = workloads.WORKLOADS[args.workload](manifest, work)
        if tracer is not None:
            tracer.take()
            tracer.paused = False

        tally = Tally()
        rounds, layers, first_spans = [], [], None
        began = time.perf_counter()
        while True:
            started = time.perf_counter()
            rounds.append(run_round(wl, cli_module, tally, tracer))
            if tracer is not None:
                spans, counts = tracer.take()
                layers.append(tracing.layer_metrics(spans, counts))
                first_spans = first_spans or spans
            else:
                # Set-up is repeated between rounds so its samples spread over the run.
                setup_times.append(time_setup(args, work / "again"))
            # Start no round that the last one's length says would end past the window.
            now = time.perf_counter()
            if (now - began) + (now - started) > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    solve_s = statistics.median(sum(r["solve"].values()) for r in rounds)
    cli_s = statistics.median(sum(r["cli"].values()) for r in rounds)
    if args.trace:
        values = {k: statistics.median(layer[k] for layer in layers) for k in layers[0]}
        # random_graph runs only while the inputs are generated, once per run.
        values["graph.random_graph.s"] = tracing.layer_metrics(
            setup_spans, setup_counts)["graph.random_graph.s"]
        values["trace.solve_s"] = solve_s
        values["trace.cli_s"] = cli_s
        listed = spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(setup_times), "solve_s": solve_s,
                  "cli_s": cli_s, "peak_rss_mb": peak_rss_mb}
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    result = {"correct": tally.wrong == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    details = dict(result, workload=args.workload, seed=args.seed, size=args.size,
                   seconds=args.seconds, setup_times=setup_times, rounds=rounds,
                   problems=tally.problems[:200], environment=environment())
    (results_dir / f"{stem}.json").write_text(json.dumps(details, indent=1), encoding="utf-8")
    if first_spans:
        names = sorted({s[0] for s in first_spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = first_spans[0][1]
        (results_dir / f"{stem}-spans.json").write_text(json.dumps({
            "names": names,
            "spans": [[index[n], round(a - t0, 7), round(b - t0, 7), p]
                      for n, a, b, p in first_spans],
        }), encoding="utf-8")
    for problem in tally.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
