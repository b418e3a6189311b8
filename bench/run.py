"""Benchmark of the ``lavse`` command line, run in process through ``cli.main``.

    python3 bench/run.py --workload grid_estimate --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50

Workloads (see BENCHMARK.json for why each was chosen):

* ``grid_estimate``: ``build``, ``estimate`` and ``ps`` on seeded noisy
  10x10 DC meshes.  The traced run also takes each seeded noiseless 8x8
  mesh once through the same pipeline after its window, as a probe of a
  known solver defect.
* ``detect``: ``reproduce table1`` and single-threaded ``detect`` on
  seeded 3x3 meshes.
* ``mc``: ``reproduce mc --trials 2000`` with seeds drawn from the run seed.
  It is not listed in BENCHMARK.json: on a shared machine its spread from
  run to run exceeded the bounds (see README.md).

A run loops over the workload's operations, a fixed list made from the
seed, until ``--seconds`` have passed and every operation ran at least
once.  Every distinct output is checked after the timed window.  With
``--trace 0`` the last line holds the end-to-end metrics; with ``--trace
1`` it holds the per-layer metrics of a traced window, taken per pass over
the operations, and the tracing overhead measured against untraced passes
run in alternation with the traced ones.
"""

from __future__ import annotations

import os

# Pinned before numpy loads so that both commits of a comparison run the
# same BLAS configuration.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import functools
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import inputs

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"
WORKLOADS = ("grid_estimate", "detect", "mc")
SETUP_REPS = 4

# Operation counts per run; each operation is one instance or one call.
GRID_NOISY = 12       # 10x10 meshes, 230 x 99, timed
GRID_EXACT = 3        # 8x8 noiseless meshes, 144 x 63, probed once after a traced window
DETECT_MESHES = 4     # 3x3 meshes, 17 x 8
DETECT_THREADS = "1"  # ``detect --threads``: all load on one thread of one process
MC_CALLS = 4          # reproduce mc calls
MC_TRIALS = "2000"

END_TO_END = {"setup_s": "s", "run_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "lav.solve_s": "s", "lav.calls": "count", "lav.iterations": "count",
    "lav.failed": "count", "lav.degenerate": "count",
    "leverage.detect_s": "s", "leverage.row_s": "s", "leverage.calls": "count",
    "leverage.bases_examined": "count", "leverage.bases_skipped": "count",
    "leverage.useful_frac": "ratio", "leverage.rows_flagged": "count",
    "leverage.bases_enumerable": "count-computed",
    "model.validate_s": "s", "model.validate_calls": "count",
    "model.io_s": "s", "model.io_bytes": "bytes",
    "power.build_s": "s", "power.build_calls": "count", "power.rows_built": "count",
    "projstats.ps_s": "s", "projstats.calls": "count",
    "projstats.directions_used": "count", "projstats.directions_skipped": "count",
    "experiments.self_s": "s", "cli.self_s": "s", "cli.output_bytes": "bytes",
    "trace.overhead_frac": "ratio", "fail_frac": "ratio",
}


def import_lavse():
    """Import the checkout's own ``lavse`` from ``src/``, never another copy."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import lavse
        from lavse import cli, experiments, lav, leverage, power
    except ImportError as err:
        raise SystemExit(f"error: cannot import lavse from {ROOT / 'src'}: {err}")
    if Path(lavse.__file__).resolve().parent != ROOT / "src" / "lavse":
        raise SystemExit(f"error: imported lavse from {lavse.__file__}, not from src/")
    return {"cli": cli, "experiments": experiments, "lav": lav,
            "leverage": leverage, "power": power}


# ---------------------------------------------------------------------------
# Operations.
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """CLI invocations run back to back; ``check`` judges their stdout texts."""

    name: str
    argvs: list[list[str]]
    check: Callable[[list[str]], list[str]]


@dataclass
class OpRecord:
    latencies: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    outputs: dict[tuple[str, ...], int] = field(default_factory=dict)   # distinct -> reps

    @property
    def reps(self) -> int:
        return len(self.latencies)


# ``checks`` pulls in scipy.optimize, so it is imported when outputs are
# checked, after the window, and set-up does not pay for it.

def _load_mesh(inst) -> tuple[np.ndarray, np.ndarray, list[str]]:
    doc = json.loads(inst.model.read_text())
    return np.array(doc["H"], dtype=float), np.array(doc["z"], dtype=float), doc["labels"]


def check_grid(inst, texts: list[str]) -> list[str]:
    import checks

    h, z, labels = _load_mesh(inst)
    return (checks.check_build(h, labels, texts[0])
            + checks.check_estimate(h, z, texts[1], checks.lav_fit(h, z)[0])
            + checks.check_ps(h, texts[2]))


def check_detect(inst, texts: list[str]) -> list[str]:
    import checks

    h, _, _ = _load_mesh(inst)
    return checks.check_detect(h, texts[0], checks.reference_flags(h))


def check_reproduce(texts: list[str]) -> list[str]:
    import checks

    return checks.check_passed(texts[-1])


def make_ops(workload: str, seed: int, workdir: Path) -> tuple[list[Op], list[Op]]:
    """(timed operations, operations run once after the window) for a seed."""
    if workload == "grid_estimate":
        specs = [(10, True)] * GRID_NOISY + [(8, False)] * GRID_EXACT
        ops = [Op(inst.name,
                  [["build", str(inst.network), "--model", "dc", "--format", "json"],
                   ["estimate", str(inst.model), "--format", "json"],
                   ["ps", str(inst.model), "--format", "json"]],
                  functools.partial(check_grid, inst))
               for inst in inputs.write_instances(workdir, seed, specs)]
        return ops[:GRID_NOISY], ops[GRID_NOISY:]
    if workload == "detect":
        meshes = inputs.write_instances(workdir, seed, [(3, False)] * DETECT_MESHES)
        ops = [Op("table1", [["reproduce", "table1"]], check_reproduce)]
        ops += [Op(inst.name, [["detect", str(inst.model), "--format", "json",
                                "--threads", DETECT_THREADS]],
                   functools.partial(check_detect, inst)) for inst in meshes]
        return ops, []
    seeds = np.random.SeedSequence(seed).generate_state(MC_CALLS)
    return [Op(f"mc-{s}", [["reproduce", "mc", "--trials", MC_TRIALS, "--seed", str(s)]],
               check_reproduce) for s in seeds], []


def run_op(cli, op: Op) -> tuple[float, tuple[str, ...], str | None]:
    """Latency, stdout texts and error (None on success) of one operation."""
    texts = []
    error = None
    start = time.perf_counter()
    try:
        for argv in op.argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            texts.append(out.getvalue())
            if code != 0:
                error = f"{argv[0]} exited {code}: {err.getvalue().strip()}"
                break
    except Exception as exc:  # an escaped exception is a failed operation
        error = f"{argv[0]} raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - start, tuple(texts), error


def run_ops(cli, ops: list[Op], records: list[OpRecord], seconds: float, tracer=None) -> None:
    """Cycle through ops until ``seconds`` passed and each ran at least once."""
    start = time.perf_counter()
    i = 0
    while i < len(ops) or time.perf_counter() - start < seconds:
        k = i % len(ops)
        latency, texts, error = run_op(cli, ops[k])
        rec = records[k]
        rec.latencies.append(latency)
        if error:
            rec.errors.append(error)
        else:
            rec.outputs[texts] = rec.outputs.get(texts, 0) + 1
        if tracer:
            tracer.counts["cli.output_bytes"] += sum(len(t.encode()) for t in texts)
        i += 1


def check_outputs(ops: list[Op], records: list[OpRecord]) -> tuple[int, list[str]]:
    """Rejected reps and problems, checking each distinct output once."""
    rejected = 0
    problems = []
    for op, rec in zip(ops, records):
        for texts, reps in rec.outputs.items():
            found = op.check(list(texts))
            if found:
                rejected += reps
                problems += [f"{op.name}: {p}" for p in found]
    return rejected, problems


def pass_time(records: list[OpRecord]) -> float:
    """Wall time of one pass: the sum over operations of their median latency.

    A median over the whole window rather than the best repetition: on a
    shared machine whose speed drifts by tens of percent over minutes, the
    best repetition spread more from run to run.
    """
    return sum(statistics.median(r.latencies) for r in records)


def latency_summary(records: list[OpRecord]) -> dict:
    """Median and tail latency; the tail has min(10, n - 1) samples above it."""
    lat = sorted(x for r in records for x in r.latencies)
    n = len(lat)
    return {"p50": statistics.median(lat), "tail": lat[max(0, n - 11)], "n": n,
            "tail_percentile": 100.0 * max(0, n - 10) / n}


def tally(timed_ops: list[Op], timed: list[OpRecord], once: list[Op],
          once_records: list[OpRecord]) -> dict:
    """Attempted and failed operations, their errors, and whether the run is correct.

    Any failure of a timed operation, an error as much as a rejected output,
    makes the run incorrect: a failed operation would otherwise still count
    its short latency in the timed metrics.  The noiseless meshes run after
    the window probe a known solver defect.  They are not operations of the
    workload: their failures are listed under ``known`` and counted in
    ``probe_failed`` (and so in the per-layer ``fail_frac``), and leave
    ``attempted``, ``failed`` and ``correct`` as the timed operations make them.
    """
    rejected, problems = check_outputs(timed_ops, timed)
    once_rejected, once_problems = check_outputs(once, once_records)
    timed_errors = [f"{op.name}: {e}" for op, r in zip(timed_ops, timed) for e in r.errors]
    once_errors = [f"{op.name}: {e}" for op, r in zip(once, once_records) for e in r.errors]
    return {"attempted": sum(r.reps for r in timed), "failed": len(timed_errors) + rejected,
            "probe_attempted": sum(r.reps for r in once_records),
            "probe_failed": len(once_errors) + once_rejected,
            "problems": timed_errors + problems, "known": once_errors + once_problems,
            "correct": not (timed_errors or problems)}


# ---------------------------------------------------------------------------
# Set-up, environment and the run itself.
# ---------------------------------------------------------------------------


def prepare(workload: str, seed: int, workdir: Path):
    """Everything a run does before its first timed operation.

    That is importing ``lavse``, writing the seed's inputs and one untimed
    warm-up run of the first operation, which pays first-call costs such as
    lazy imports.
    """
    modules = import_lavse()
    ops, once = make_ops(workload, seed, workdir)
    run_op(modules["cli"], ops[0])
    return modules, ops, once


def setup_child(workload: str, seed: int) -> None:
    """Prepare a run as ``run_workload`` does, then report ready and exit."""
    workdir = WORK / f"setup-{workload}-{seed}-{os.getpid()}"
    try:
        prepare(workload, seed, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(workload: str, seed: int, reps: int) -> list[float]:
    """Times from spawning a fresh process to its being ready to run."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, __file__, "--setup-only", "--workload", workload,
                               "--seed", str(seed)], cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait()
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"error: set-up process exited {code}")
        times.append(elapsed)
    return times


def environment(workload: str, seed: int, seconds: float) -> dict:
    import numpy
    import scipy

    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "detect_threads": int(DETECT_THREADS), "detect_threads_default": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": git_commit(), "src_sha256": src.hexdigest(),
        "machine": platform.machine(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        modules, ops, once = prepare(workload, seed, workdir)
        cli = modules["cli"]
        records = [OpRecord() for _ in ops]
        once_records = [OpRecord() for _ in once]
        timed_ops, timed = list(ops), list(records)
        if trace:
            from spans import Tracer

            # Untraced and traced passes alternate, so that a drift in the
            # machine's speed does not pass for tracing overhead.
            untraced = [OpRecord() for _ in ops]
            timed_ops, timed = timed_ops + ops, timed + untraced
            tracer = Tracer(modules)
            passes = 0
            start = time.perf_counter()
            while True:
                run_ops(cli, ops, untraced, 0)
                tracer.install()
                try:
                    run_ops(cli, ops, records, 0, tracer)
                    passes += 1
                    if time.perf_counter() - start >= seconds:
                        window = dict(tracer.counts)
                        run_ops(cli, once, once_records, 0, tracer)
                        break
                finally:
                    tracer.uninstall()
            tracer.write(WORK / f"spans-{workload}.jsonl")   # the latest traced run
            # Per pass over the timed operations, plus the noiseless meshes once.
            layer = {k: window.get(k, 0.0) / passes + v - window.get(k, 0.0)
                     for k, v in tracer.counts.items()}
            examined = layer.get("leverage.bases_examined", 0.0)
            tried = examined + layer.get("leverage.bases_skipped", 0.0)
            layer["leverage.useful_frac"] = examined / tried if tried else 0.0
            layer["trace.overhead_frac"] = pass_time(records) / pass_time(untraced) - 1.0
            metrics = {name: layer.get(name, 0.0) for name in PER_LAYER}
        else:
            # Set-up is timed on both sides of the window, so that one slow
            # spell of a shared machine does not cover every repetition.
            setup = measure_setup(workload, seed, SETUP_REPS // 2)
            run_ops(cli, ops, records, seconds)
            setup += measure_setup(workload, seed, SETUP_REPS - SETUP_REPS // 2)
            lat = latency_summary(records)
            metrics = {
                "setup_s": statistics.median(setup),
                "run_s": pass_time(records),
                "op_p50_ms": lat["p50"] * 1e3,
                "op_tail_ms": lat["tail"] * 1e3,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        report = tally(timed_ops, timed, once, once_records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        metrics["fail_frac"] = ((report["failed"] + report["probe_failed"])
                                / (report["attempted"] + report["probe_attempted"]))
    report.update(metrics=metrics, env=environment(workload, seed, seconds))
    report["once"] = [{"op": op.name, "latency_s": r.latencies, "errors": r.errors}
                      for op, r in zip(once, once_records) if r.reps]
    if not trace:
        report["latency"] = lat
        report["latencies"] = {op.name: r.latencies for op, r in zip(ops, records)}
    return report


def print_report(report: dict, trace: bool) -> None:
    units = PER_LAYER if trace else END_TO_END
    env = report["env"]
    print(f"workload {env['workload']}  seed {env['seed']}  trace {int(trace)}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in report["metrics"].items():
        print(f"  {name:<28} {value:>16.6g} {units[name]}")
    if not trace:
        lat = report["latency"]
        print(f"  op_tail_ms is the p{lat['tail_percentile']:.1f} latency of {lat['n']} "
              f"timed operations")
        print("latencies_s " + json.dumps(report["latencies"]))
    for entry in report["once"]:
        print(f"  probe after the window: {entry['op']} "
              f"{entry['latency_s'][0]:.3f} s {'; '.join(entry['errors']) or 'ok'}")
    print(f"  attempted {report['attempted']}  failed {report['failed']}  "
          f"probes {report['probe_attempted']}  probes failed {report['probe_failed']}")
    for line in report["known"]:
        print(f"  FAILED (probe, known defect) {line}")
    for line in report["problems"]:
        print(f"  FAILED {line}")


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process, untraced then traced; one table."""
    rows = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, __file__, "--workload", workload,
                                   "--seed", str(seed), "--seconds", str(seconds),
                                   "--trace", str(trace)], cwd=ROOT,
                                  capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{workload} trace {trace}: exited {proc.returncode}")
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print("\n".join(proc.stdout.strip().splitlines()[:-1]))
            rows.append({"workload": workload, "trace": trace, **result})
    print(json.dumps(rows))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        setup_child(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(report, bool(args.trace))
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
