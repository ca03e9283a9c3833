"""paraopt-kit benchmark.

    python3 perfbench/run.py --workload heat-track-pc --seed 0 --seconds 20 --trace 0

Runs one workload in this process: sets it up ``setup_reps`` times, then
repeats its operation (a ``paraopt_solve``, or one pass of the analysis
sweep) for ``--seconds`` seconds, checking every result. With ``--trace 0``
it reports the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the
per-layer metrics from a traced run. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it, and ``perfbench/results/``, hold the
sample counts, the iteration counts, the environment and (traced) the spans.

``--workload all`` (the default) runs every workload, each in its own
process, one after another.

Exit codes: 0 with a result line; 2 when the package sources are missing
or an argument is invalid; 3 when a traced run misses a layer boundary the
workload must reach.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every workload to n=4, L_hat=10 (smoke test)")
    return p.parse_args(argv)


def run_all(args, names) -> int:
    results, status = {}, 0
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def import_package():
    """Import paraopt_kit from this checkout's sources, never from an
    installed copy."""
    if not os.path.isfile(os.path.join(SRC, "paraopt_kit", "__init__.py")):
        raise ImportError(f"package sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import paraopt_kit
    if not os.path.abspath(paraopt_kit.__file__).startswith(SRC + os.sep):
        raise ImportError(f"paraopt_kit resolved to {paraopt_kit.__file__}")


def _openblas_libraries() -> list[dict]:
    """Every OpenBLAS loaded in this process (numpy and scipy each bundle
    one) with its version string and thread count."""
    paths = set()
    with open("/proc/self/maps", encoding="utf-8") as f:
        for line in f:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower() and ".so" in path:
                paths.add(path)
    libs = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)  # already loaded: this only finds it again
        names = [(f"{p}get_config{x}", f"{p}get_num_threads{x}")
                 for p in ("scipy_openblas_", "openblas_") for x in ("64_", "")]
        found = next(((getattr(lib, c), getattr(lib, t)) for c, t in names
                      if hasattr(lib, c) and hasattr(lib, t)), None)
        entry = {"library": os.path.basename(path), "config": None,
                 "threads": None}
        if found is not None:
            get_config, get_threads = found
            get_config.restype = ctypes.c_char_p
            get_threads.restype = ctypes.c_int
            entry.update(config=get_config().decode(), threads=get_threads())
        libs.append(entry)
    return libs


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = _openblas_libraries()
    except OSError as exc:
        blas = [{"error": str(exc)}]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": blas,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "PARAOPT_THREADS": os.environ.get("PARAOPT_THREADS"),
            "machine": platform.machine()}


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    try:
        import_package()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads
    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2

    def log(msg):
        print(f"perfbench: {msg}", file=sys.stderr, flush=True)

    import harness
    import tracing
    try:
        record = harness.run_workload(args, started, log)
    except tracing.TraceGuardError as exc:
        log(f"trace guard: {exc}")
        return 3
    record["env"] = environment()

    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    with open(os.path.join(RESULTS, tag + ".json"), "w", encoding="utf-8") as f:
        json.dump(record, f)

    print(f"workload {record['workload']} seed {args.seed} "
          f"trace {args.trace}: {record['attempted']} operations, "
          f"{record['failed']} failed (fail_share {record['fail_share']:g})")
    if "iterations" in record:
        print(f"outer/inner iterations per solve: {record['iterations']}")
    for name, m in record["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
