"""Closed-loop benchmark of the quantfolio CLI pipeline.

    python3 perfbench/run.py --workload golden --seed 1 --seconds 55 --trace 0

Run from the root of a checkout. One client runs the four stages in sequence,
each as a fresh ``python -m quantfolio.cli <stage>`` process, exactly as a
user would; the next pipeline starts only when the previous one ends, and BLAS
and OpenMP run one thread per process, all on one CPU. ``--trace 0`` times
whole pipelines for ``--seconds`` seconds next to runs of a fixed reference
process (``reference.py``), and reports medians of the end-to-end metrics,
times in reference seconds; ``--trace 1`` runs one untraced and one
traced pipeline (spans from ``tracer.py``), the fresh-interpreter import
timings and the kernel sweep, and reports per-layer metrics. Every
pipeline's outputs are checked; each process and each check is one attempted
operation. The last line of stdout is the result JSON; the line before it
holds the environment fingerprint and the check details.
See README.md in this directory for the metric definitions.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import tracer

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".perfbench")  # scratch inputs, artifacts and results
STAGES = tracer.STAGES
METHODS = ("GA", "MinVar", "Equal", "Ensemble")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_REPS = 3
RUN_BUDGET_S = 170.0  # every process is killed past this point of the run
OPTIMAL_GAP = 1e-12


class Run:
    """One benchmark invocation: its deadline, environment and op counts."""

    def __init__(self, workdir: str) -> None:
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=SRC, **{v: "1" for v in THREAD_VARS})
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)
        return ok

    def spawn(self, argv: list[str], log_name: str) -> tuple[float, int, float]:
        """Run a child to completion in the work dir: (wall s, exit code, peak RSS MB).

        ``os.wait4`` reaps the child and returns its own rusage, so the peak
        RSS is this process's alone.
        """
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return 0.0, -1, 0.0
        with open(os.path.join(self.workdir, log_name), "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return elapsed, proc.returncode, usage.ru_maxrss / 1024.0

    def python(self, code: str) -> float:
        elapsed, rc, _ = self.spawn([sys.executable, "-c", code], "python.err")
        self.record(f"python -c {code!r} exits 0", rc == 0)
        return elapsed

    def reference(self) -> float | None:
        """Wall time of one ``reference.py`` process; None if it failed."""
        elapsed, rc, _ = self.spawn([sys.executable, os.path.join(HERE, "reference.py")],
                                    "reference.err")
        return elapsed if self.record("reference exits 0", rc == 0) else None

    def cli_help(self) -> float:
        elapsed, rc, _ = self.spawn([sys.executable, "-m", "quantfolio.cli", "--help"], "help.err")
        self.record("cli --help exits 0", rc == 0)
        return elapsed

    def pipeline(self, spans_dir: str | None = None, before=None) -> dict | None:
        """The four stages in sequence, each after ``before(stage)`` if given;
        None if that or a stage failed (later stages need its artifacts, so
        they are not started)."""
        shutil.rmtree(os.path.join(self.workdir, "out"), ignore_errors=True)
        stage_s, rss = {}, 0.0
        for stage in STAGES:
            if before is not None and not before(stage):
                return None
            if spans_dir is None:
                argv = [sys.executable, "-m", "quantfolio.cli", stage, "--config", "run.cfg"]
            else:
                spans = os.path.join(spans_dir, f"{stage}.json")
                argv = [sys.executable, os.path.join(HERE, "tracer.py"), spans,
                        stage, "--config", "run.cfg"]
            elapsed, rc, stage_rss = self.spawn(argv, f"{stage}.err")
            if rc != 0:
                with open(os.path.join(self.workdir, f"{stage}.err")) as fh:
                    self.record(f"{stage} exits 0 (got {rc}): {fh.read()[-500:]}", False)
                return None
            self.record(f"{stage} exits 0", True)
            stage_s[stage] = elapsed
            rss = max(rss, stage_rss)
        return {"stage_s": stage_s, "pipeline_s": sum(stage_s.values()), "rss_mb": rss}


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def artifact_digest(out_dir: str) -> tuple[str, int]:
    """SHA-256 over every artifact (manifest without its path-bearing fields)
    and the artifacts' total size in bytes."""
    h = hashlib.sha256()
    size = 0
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        size += os.path.getsize(path)
        if name == "manifest.json":
            manifest = _read_json(path)
            manifest.pop("config_sha256", None)
            for key in ("prices_csv", "out_dir"):
                manifest.get("config", {}).pop(key, None)
            data = json.dumps(manifest, sort_keys=True).encode()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
        h.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest(), size


def check_outputs(run: Run, out_dir: str, test_days: int, eval_shots: int) -> list[float]:
    """Record each output check as one operation; return every window's gap."""
    with open(os.path.join(out_dir, "metrics.csv"), newline="") as fh:
        rows = {row["strategy"]: row for row in csv.DictReader(fh)}
    run.record("metrics.csv has 13 strategy rows", len(rows) == 13)
    gaps: list[float] = []
    for method in METHODS:
        blob = _read_json(os.path.join(out_dir, f"schedule_{method.lower()}.json"))
        bits = blob["schedule"]
        run.record(f"{method}: schedule covers the {test_days} test days", len(bits) == test_days)
        window_gaps = [w["gap"] for w in blob["windows"]]
        run.record(f"{method}: every window has a gap >= -1e-12",
                   all(g is not None and g >= -OPTIMAL_GAP for g in window_gaps))
        gaps.extend(g for g in window_gaps if g is not None)
        totals: dict[str, int] = {}
        with open(os.path.join(out_dir, f"histogram_{method.lower()}.csv"), newline="") as fh:
            for row in csv.DictReader(fh):
                totals[row["window"]] = totals.get(row["window"], 0) + int(row["count"])
        run.record(f"{method}: each window's histogram sums to {eval_shots} shots",
                   len(totals) == len(window_gaps)
                   and all(c == eval_shots for c in totals.values()))
        row = rows.get(f"{method} + QAOA")
        run.record(f"{method} + QAOA rebalances equal its schedule bits",
                   row is not None and int(row["rebalances"]) == sum(bits))
    return gaps


def instance_key(workload: str, workdir: str) -> str:
    """What a workload's artifacts are a function of: the package source under
    ``src/``, the Python, numpy and scipy versions and the input files. The
    seed is left out because the pipeline instance does not depend on it."""
    import numpy
    import scipy

    h = hashlib.sha256(f"{platform.python_version()} {numpy.__version__} "
                       f"{scipy.__version__}".encode())
    files = [os.path.join(workdir, name) for name in ("prices.csv", "run.cfg")]
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        files += [os.path.join(dirpath, f) for f in sorted(filenames) if not f.endswith(".pyc")]
    for path in files:
        with open(path, "rb") as fh:
            data = fh.read()
        h.update(os.path.relpath(path, ROOT).encode() + b"\0" + hashlib.sha256(data).digest())
    return f"{workload}:{h.hexdigest()}"


class DigestStore:
    """Artifact digests by instance key (see ``instance_key``). Every pipeline
    of a run must give the digest of the first, and so must every later run
    of the same source, libraries and inputs in this checkout; a change to any
    of them starts a new key, so different code is never compared."""

    def __init__(self, path: str, key: str) -> None:
        self.path = path
        self.key = key
        self.known = _read_json(path) if os.path.exists(path) else {}

    def check(self, run: Run, digest: str) -> None:
        expected = self.known.setdefault(self.key, digest)
        run.record("artifact digest matches earlier pipelines of this instance",
                   digest == expected)
        tmp = f"{self.path}.{os.getpid()}.tmp"
        with open(tmp, "w") as fh:
            json.dump(self.known, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


def fingerprint(run: Run, cpus: set[int]) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    commit, dirty = None, None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = ["git", "-C", ROOT]
        commit = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True,
                                text=True).stdout.strip() or None
        dirty = bool(subprocess.run([*git, "status", "--porcelain", "--untracked-files=no"],
                                    capture_output=True, text=True).stdout.strip())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": len(cpus),
        "pinned_cpu": max(cpus),
        "cpu_model": cpu,
        "thread_env": {v: run.env.get(v) for v in (*THREAD_VARS, "BLIS_NUM_THREADS",
                                                  "VECLIB_MAXIMUM_THREADS")},
        "git_commit": commit,
        "git_dirty": dirty,
    }


def golden_match(out_dir: str, reference: str | None) -> bool | None:
    """Informational: metrics.csv equals the repo's golden file byte for byte."""
    if reference is None or not os.path.exists(os.path.join(ROOT, reference)):
        return None
    with open(os.path.join(ROOT, reference), "rb") as ref, \
            open(os.path.join(out_dir, "metrics.csv"), "rb") as got:
        return ref.read() == got.read()


def check_pipeline(run, test_days, workload, store) -> tuple[list[float], dict]:
    """Output checks and digest of the pipeline that just ran."""
    out_dir = os.path.join(run.workdir, "out")
    try:
        gaps = check_outputs(run, out_dir, test_days, workload.eval_shots)
        digest, size = artifact_digest(out_dir)
    except (OSError, ValueError, KeyError, TypeError, csv.Error) as exc:
        run.record(f"artifacts are readable ({exc!r})", False)
        return [], {}
    store.check(run, digest)
    return gaps, {"artifact_sha256": digest, "artifact_bytes": size,
                  "golden_match": golden_match(out_dir, workload.reference_metrics)}


def end_to_end(run, args, test_days, workload, store) -> tuple[dict, dict]:
    """Closed loop: each cycle is one pipeline with a reference process and a
    ``--help`` process (a ``setup_s`` sample) before its first and its third
    stage. The next cycle starts only while it is expected to end within
    ``--seconds``, and at least one runs.

    The host's speed drifts by up to 2x within seconds to minutes (README
    "Noise"), so the medians of the ``--help`` and pipeline wall times are
    divided by the mean wall time of the run's reference processes. A time in
    reference seconds is the wall time on a host where ``reference.py`` takes
    one second."""
    refs: list[float] = []
    helps: list[float] = []

    def samples(stage: str) -> bool:
        if stage in ("select", "schedule"):
            ref = run.reference()
            if ref is None:
                return False
            refs.append(ref)
            helps.append(run.cli_help())
        return True

    reps: list[dict] = []
    cycles: list[float] = []
    gaps: list[float] = []
    extra: dict = {}
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        rep = run.pipeline(before=samples)
        if rep is None:
            break
        gaps, extra = check_pipeline(run, test_days, workload, store)
        reps.append(rep)
        cycles.append(time.perf_counter() - start)
        if time.perf_counter() - t0 + statistics.median(cycles) > args.seconds:
            break
    if not reps:
        return {}, extra
    ref_s = statistics.fmean(refs)
    values = {
        "setup_s": statistics.median(helps) / ref_s,
        "pipeline_s": statistics.median(r["pipeline_s"] for r in reps) / ref_s,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
        "qaoa_gap_mean": statistics.fmean(gaps) if gaps else 0.0,
        "qaoa_optimal_frac": sum(g <= OPTIMAL_GAP for g in gaps) / len(gaps) if gaps else 0.0,
    }
    # Single stages spread more between runs than the pipeline, so they are
    # reported here and per layer, not gated (README "Noise").
    extra["stage_s"] = {
        f"{s}_s": {"value": statistics.median(r["stage_s"][s] for r in reps) / ref_s, "unit": "s"}
        for s in STAGES
    }
    extra["reference_s"] = ref_s
    extra["reference_samples_s"] = refs
    extra["setup_samples_s"] = helps
    extra["pipelines"] = reps
    return values, extra


def per_layer(run, args, test_days, workload, store) -> tuple[dict, dict]:
    """Fresh-interpreter import times, one untraced and one traced pipeline,
    then the kernel sweep."""
    import kernels

    values = {
        f"setup.{name}_s": statistics.median(run.python(code) for _ in range(IMPORT_REPS))
        for name, code in (
            ("interpreter", "pass"),
            ("import_numpy", "import numpy"),
            ("import_scipy_optimize", "import scipy.optimize"),
            ("import_cli", "import quantfolio.cli"),
        )
    }
    values["setup.reference_s"] = statistics.median(
        run.reference() or 0.0 for _ in range(IMPORT_REPS))
    spans_dir = os.path.join(run.workdir, "spans")
    os.makedirs(spans_dir)
    untraced = run.pipeline()
    if untraced is None:
        return {}, {}
    check_pipeline(run, test_days, workload, store)
    traced = run.pipeline(spans_dir)
    if traced is None:
        return {}, {}
    _, extra = check_pipeline(run, test_days, workload, store)
    traces = {s: _read_json(os.path.join(spans_dir, f"{s}.json")) for s in STAGES}
    values.update(tracer.summarise(traces))
    values["cli.artifact_bytes"] = extra.get("artifact_bytes", 0)
    values.update({f"stage.{s}_s": untraced["stage_s"][s] for s in STAGES})
    values["trace.untraced_pipeline_s"] = untraced["pipeline_s"]
    values["trace.traced_pipeline_s"] = traced["pipeline_s"]
    values["trace.overhead_s"] = traced["pipeline_s"] - untraced["pipeline_s"]
    kernel_values, missing_kernels = kernels.sweep(args.seed)
    values.update(kernel_values)
    extra["missing_targets"] = sorted({m for t in traces.values() for m in t["missing"]})
    extra["missing_kernels"] = missing_kernels
    extra["spans"] = {s: traces[s]["spans"] for s in STAGES}
    return values, extra


def listed_metrics(run: Run, values: dict, trace: int) -> dict:
    """The metrics BENCHMARK.json lists for this mode, with the units it gives
    them; a listed metric the run did not produce is a failed check."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)["per_layer" if trace else "end_to_end"]
    out = {}
    for metric in spec:
        name = metric["name"]
        if run.record(f"metric {name} is measured", name in values):
            out[name] = {"value": values[name], "unit": metric["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "quantfolio", "cli.py")):
        print(f"error: no quantfolio sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy loads, for the kernel sweep
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    # One CPU for this process and every child: each vCPU of a shared host
    # slows down on its own, and the reference process only measures the
    # CPU it runs on.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    run = Run(workdir)
    try:
        test_days = workloads.write_inputs(workload.name, workdir)
        store = DigestStore(os.path.join(WORK, "digests.json"),
                            instance_key(workload.name, workdir))
        run.cli_help()  # warm-up: byte-compile and page in, as a returning user has
        if args.trace:
            values, extra = per_layer(run, args, test_days, workload, store)
        else:
            values, extra = end_to_end(run, args, test_days, workload, store)
        metrics = listed_metrics(run, values, args.trace) if values else {}
        info = {
            "workload": workload.name,
            "seed": args.seed,
            "trace": args.trace,
            "fingerprint": fingerprint(run, cpus),
            "failures": run.failures,
            **extra,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": run.failed == 0 and bool(values),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    with open(os.path.join(WORK, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({**info, **result}, fh, indent=1)
    info.pop("spans", None)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
