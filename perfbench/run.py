"""pvmi benchmark: time, memory and calibration of three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py                           # every workload, table
    python3 perfbench/run.py --workload long-horizon --seed 3 --seconds 40
    python3 perfbench/run.py --workload demo-grid --trace 1   # per-layer run

One process runs one workload (``--workload all`` runs each in a child
process, so peak memory stays per workload). BLAS and OpenMP are pinned to
one thread before numpy loads. An untraced run sets up the inputs several
times (``setup_s``), then repeats the job on fresh inputs until
``--seconds`` would be exceeded, gating every job's outputs, and reports
seconds per job (``run_s``) and medians. A traced run (``--trace 1``)
runs the job untraced, with spans around every pvmi layer, and untraced
again, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
are a table of every metric with its unit and sample count, and the run's
provenance. The same record, with provenance, is written under
``perfbench/.out/``.
"""

import os
import sys

THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)  # before anything imports numpy

import argparse
import ctypes
import gc
import hashlib
import itertools
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
SETUP_REPEATS = 3  # up front; one more set-up sample precedes every job
IMPORTS = "import pvmi, pvmi.cli, pvmi.experiment"

# name, unit, better -- the end-to-end metrics, measured with tracing off
END_TO_END = [
    ("run_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("coverage_gap", "ratio", "lower"),
    ("nrmse", "ratio", "lower"),
]


def main(argv=None) -> int:
    if not (SRC / "pvmi" / "__init__.py").is_file():
        print(f"error: no pvmi sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))

    import pvmi
    if Path(pvmi.__file__).resolve().parent != (SRC / "pvmi").resolve():
        print(f"error: imported pvmi from {pvmi.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    try:
        if args.trace:
            record = traced_run(workload, args.seed, workdir)
        else:
            record = timed_run(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["provenance"] = provenance(args)
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2) + "\n")
    print_record(args.workload, record)
    print(json.dumps(final_line(record)))
    return 0


# --------------------------------------------------------------------------
# untraced run: end-to-end metrics

def timed_run(workload, seed: int, seconds: int, workdir: Path) -> dict:
    """Job ``i`` of the run gets the inputs of (seed, i). Jobs repeat until the
    next one would end after ``seconds``, but at least the workload's
    ``quality_jobs`` run: the calibration and accuracy metrics average over
    exactly those, so they are a fixed function of the seed.

    ``run_s`` is the seconds per job, the whole run's job time over its jobs:
    the reciprocal of the throughput. On a shared 2-vCPU VM the speed can
    swing between two levels about 1.5x apart within seconds (README.md);
    a median of jobs that each land on one level or the other jumps between
    them, and the mean does not.

    Set-up is sampled up front and again before every job, so that its
    median spans the whole run: an import time in a fresh interpreter, and
    the time to make the job's inputs (generate, split, gaps, config). The
    interpreter's own start-up is left out; it is not the program's."""
    from gate import check_outcome
    from workloads import ALPHA

    imports = [_import_seconds() for _ in range(SETUP_REPEATS)]
    data = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup(seed, 0, workdir)
        data.append(time.perf_counter() - t0)
    run_samples: list[float] = []
    gaps: list[float] = []
    errors: list[float] = []
    digests: list[str] = []
    attempted = failed = 0
    failures: list[str] = []
    deadline = time.perf_counter() + seconds
    for rep in itertools.count():
        imports.append(_import_seconds())
        t0 = time.perf_counter()
        inputs = workload.setup(seed, rep, workdir)
        data.append(time.perf_counter() - t0)
        workload.clean(workdir)
        gc.collect()
        try:
            t0 = time.perf_counter()
            result = workload.job(inputs, workdir)
            elapsed = time.perf_counter() - t0
            outcome = workload.collect(inputs, workdir, result)
        except Exception:  # a crashed job is a failed attempt, not a time
            traceback.print_exc()
            attempted, failed = attempted + 1, failed + 1
            failures.append(f"job {rep} raised")
            break
        gate = check_outcome(outcome, inputs)
        attempted, failed = attempted + gate.attempted, failed + gate.failed
        failures += [f"job {rep}: {f}" for f in gate.failures]
        run_samples.append(elapsed)
        digests.append(outcome.digest)
        if rep < workload.quality_jobs:
            ok = [c for c in outcome.cells if c.status == "ok"]
            gaps += [abs(c.coverage - (1.0 - ALPHA)) for c in ok]
            errors += [c.nrmse for c in ok]
        if (rep + 1 >= workload.quality_jobs
                and time.perf_counter() + statistics.fmean(run_samples) > deadline):
            break

    metrics = {}
    if run_samples:
        metrics["run_s"] = _metric(statistics.fmean(run_samples), "s", run_samples)
    setup_s = statistics.median(imports) + statistics.median(data)
    metrics["setup_s"] = _metric(setup_s, "s", imports)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = _metric(rss_mb, "MB", [rss_mb])
    if gaps:
        metrics["coverage_gap"] = _metric(statistics.fmean(gaps), "ratio", gaps)
        metrics["nrmse"] = _metric(statistics.fmean(errors), "ratio", errors)
    attempted = max(attempted, 1)
    metrics["fail_ratio"] = _metric(failed / attempted, "ratio", [failed / attempted], n=attempted)
    return {
        "correct": failed == 0 and all(name in metrics for name, _, _ in END_TO_END),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "reported": [name for name, _, _ in END_TO_END],
        "digests": digests,
        "run_samples": run_samples,
        "setup_samples": {"imports": imports, "data": data},
    }


def _import_seconds() -> float:
    """pvmi's import time, measured inside a fresh interpreter."""
    probe = f"import time; t = time.perf_counter(); {IMPORTS}; print(time.perf_counter() - t)"
    done = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(SRC)},
                          check=True, capture_output=True, text=True, timeout=60)
    return float(done.stdout)


# --------------------------------------------------------------------------
# traced run: per-layer metrics

def traced_run(workload, seed: int, workdir: Path) -> dict:
    """The job for (seed, 0) untraced, traced, and untraced again. The two
    untraced jobs bracket the traced one, so that ``trace.overhead_ratio``
    compares it with their mean rather than with a first, colder job."""
    from gate import check_outcome
    from spans import PER_LAYER, Recorder, Tracing

    def untraced_job(expected_digest):
        inputs = workload.setup(seed, 0, workdir)
        workload.clean(workdir)
        gc.collect()
        cpu0, t0 = _cpu_seconds(), time.perf_counter()
        result = workload.job(inputs, workdir)
        seconds, cpu_s = time.perf_counter() - t0, _cpu_seconds() - cpu0
        outcome = workload.collect(inputs, workdir, result)
        return seconds, cpu_s, outcome, check_outcome(outcome, inputs, expected_digest)

    before, cpu_before, reference, gate_before = untraced_job(None)

    recorder = Recorder(run_id=f"{workload.name}-seed{seed}")
    workload.clean(workdir)
    gc.collect()
    with Tracing(recorder):
        inputs = workload.setup(seed, 0, workdir)
        t0 = time.perf_counter()
        result = workload.job(inputs, workdir)
        traced = time.perf_counter() - t0
    outcome = workload.collect(inputs, workdir, result)
    gate_traced = check_outcome(outcome, inputs, reference.digest)
    OUT.mkdir(exist_ok=True)
    recorder.write(OUT / f"spans-{workload.name}-seed{seed}.jsonl")

    after, cpu_after, _, gate_after = untraced_job(reference.digest)
    gates = (gate_before, gate_traced, gate_after)

    values = recorder.layer_metrics(traced)
    values["experiment.bytes_written"] = outcome.bytes_written
    values["proc.cpu_s"] = (cpu_before + cpu_after) / 2
    values["proc.blas_threads"] = blas_threads()
    values["trace.overhead_ratio"] = traced / ((before + after) / 2)
    metrics = {name: _metric(values[name], unit, [values[name]]) for name, unit, _ in PER_LAYER}
    failed = sum(g.failed for g in gates)
    return {
        "correct": failed == 0,
        "attempted": sum(g.attempted for g in gates),
        "failed": failed,
        "failures": [f for g in gates for f in g.failures],
        "metrics": metrics,
        "reported": [name for name, _, _ in PER_LAYER],
        "digest": outcome.digest,
        "workload_seeds": inputs.seeds,
        "run_s": {"untraced": [before, after], "traced": traced},
        "busy_s": dict(recorder.layer_seconds()["busy"]),
        "spans": len(recorder.spans),
    }


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


# --------------------------------------------------------------------------
# reporting

def _metric(value, unit: str, samples: list, n: int | None = None) -> dict:
    return {"value": value, "unit": unit, "n": len(samples) if n is None else n,
            "min": min(samples), "max": max(samples)}


def final_line(record: dict) -> dict:
    metrics = {
        name: {"value": record["metrics"][name]["value"], "unit": record["metrics"][name]["unit"]}
        for name in record["reported"] if name in record["metrics"]
    }
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def print_record(workload: str, record: dict) -> None:
    print(f"== {workload}: {'correct' if record['correct'] else 'INCORRECT'}, "
          f"{record['failed']} of {record['attempted']} checks failed")
    for failure in record["failures"]:
        print(f"   gate failure: {failure}")
    for name, m in record["metrics"].items():
        spread = f"  [{m['min']:.6g} .. {m['max']:.6g}]" if m["n"] > 1 else ""
        print(f"   {name:36s} {m['value']:>14.6g} {m['unit']:6s} n={m['n']}{spread}")
    print("   provenance: " + json.dumps(record["provenance"], sort_keys=True))


def provenance(args) -> dict:
    import numpy
    return {
        "commit": _git_commit(),
        "src_sha256": _tree_digest(SRC),
        "bench_sha256": _tree_digest(HERE),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_pins": THREAD_PINS,
        "blas_threads": blas_threads(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts or OUT in path.parents:
            continue
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_threads() -> int:
    """Threads the loaded OpenBLAS will use; the process's thread count when
    the library cannot be asked."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        maps = []
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return _os_threads()


def _os_threads() -> int:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return -1


# --------------------------------------------------------------------------
# every workload, one child process each

def run_all(args, names: list[str]) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not lines:
            print(f"== {name}: exited with {done.returncode}")
            combined["correct"] = False
            combined["failed"] += 1
            combined["attempted"] += 1
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
