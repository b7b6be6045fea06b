#!/usr/bin/env python3
"""filmstab benchmark: times fixed CLI workloads from outside and checks their outputs.

One workload::

    python3 benchmark/run.py --workload stability-2d --seed 0 --seconds 20 --trace 0

``--trace 0`` spawns the set-up probe a few times, then runs the CLI again and
again for about ``--seconds`` seconds (at least once), and reports the
end-to-end metrics.  ``--trace 1`` runs the CLI twice under the span wrappers
of ``tracing.py`` and once untraced in between, and reports the per-layer
metrics and the tracing overhead.  Either way every run's outputs are checked, and the last
line of standard output is one JSON object::

    {"correct": true, "attempted": 6, "failed": 0, "metrics": {...}}

All four workloads, both modes, with a summary table and a
``results/BENCH_<label>.json`` file::

    python3 benchmark/run.py --all --label baseline

The program is run from the checkout's ``src/`` directory; the benchmark
refuses to run without it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

# the variables filmstab's --threads sets; children get them in advance so the
# traced child and the set-up probe load BLAS with the same thread count
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 5
# one invocation ends within 180 s: a child still running at this point is killed
DEADLINE_S = 170.0

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}


class Failure(Exception):
    """The benchmark cannot produce a result."""


# -- child processes ------------------------------------------------------------------


class Child:
    """One finished child process, timed from spawn to exit."""

    def __init__(self, rc, spawn_ns, exit_ns, usage, log: Path):
        self.rc = rc
        self.spawn_ns = spawn_ns
        self.exit_ns = exit_ns
        self.wall_s = (exit_ns - spawn_ns) / 1e9
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mib = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        self.log = log

    def problems(self) -> list:
        if self.rc == 0:
            return []
        tail = self.log.read_text(errors="replace").strip().splitlines()[-3:]
        return [f"exit code {self.rc}: " + " | ".join(tail)]


def spawn(argv, log: Path, deadline_ns: int) -> Child:
    env = dict(os.environ)
    env.update({var: str(workloads.THREADS) for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    timeout = max(1.0, (deadline_ns - tracing.now_ns()) / 1e9)
    with open(log, "wb") as out:
        spawn_ns = tracing.now_ns()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        exit_ns = tracing.now_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, spawn_ns, exit_ns, usage, log)


# -- one workload -----------------------------------------------------------------------


class Session:
    """Runs of one workload and seed, sharing a config file and a scratch directory."""

    def __init__(self, workload: workloads.Workload, seed: int, deadline_ns: int):
        self.w = workload
        self.seed = seed
        self.deadline_ns = deadline_ns
        self.work = RESULTS / "work" / f"{workload.name}-seed{seed}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config = self.work / "config.json"
        self.config.write_text(json.dumps(workload.config(seed), indent=2) + "\n")
        self.first_outputs = None
        self.runs = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def remaining_s(self) -> float:
        return (self.deadline_ns - tracing.now_ns()) / 1e9

    def _record(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]

    def setup_probe(self) -> Child:
        log = self.work / "setup.log"
        argv = [sys.executable, str(BENCH / "setup_probe.py"), self.w.command, str(self.config)]
        child = spawn(argv, log, self.deadline_ns)
        self._record("setup probe", child.problems())
        return child

    def cli(self, traced_spans: Path | None = None) -> tuple:
        """One CLI run, untraced or traced: ``(child, spans or None, whether it failed)``."""
        self.runs += 1
        out = self.work / f"run{self.runs}"
        argv = [self.w.command, "--config", str(self.config), "--out", str(out),
                "--seed", str(self.seed), "--threads", str(workloads.THREADS)]
        if traced_spans is None:
            argv = [sys.executable, "-m", "filmstab.cli"] + argv
        else:
            traced_spans.unlink(missing_ok=True)
            argv = [sys.executable, str(BENCH / "tracing.py"), str(traced_spans), "--"] + argv
        child = spawn(argv, self.work / f"run{self.runs}.log", self.deadline_ns)
        problems = child.problems() or self.w.check(out, self.seed) + self._same_as_first(out)
        trace = None
        if traced_spans is not None and traced_spans.is_file():
            trace = json.loads(traced_spans.read_text())
        self._record(f"{'traced' if traced_spans else 'untraced'} run {self.runs}", problems)
        shutil.rmtree(out, ignore_errors=True)
        return child, trace, bool(problems)

    def _same_as_first(self, out: Path) -> list:
        """Repeat runs of one config must write byte-identical outputs."""
        outputs = {name: (out / name).read_bytes() for name in self.w.outputs if (out / name).is_file()}
        if self.first_outputs is None:
            self.first_outputs = outputs
            return []
        return [f"{name} differs from the first run's" for name in outputs
                if outputs[name] != self.first_outputs.get(name)]


def measure_end_to_end(session: Session, seconds: float) -> dict:
    """Set-up probes, then untraced CLI runs for about ``seconds``; end-to-end metrics."""
    setup = [session.setup_probe().wall_s for _ in range(SETUP_PROBES)]
    runs = []
    start_ns = tracing.now_ns()
    while True:
        child, _, _ = session.cli()
        runs.append(child)
        expected = statistics.median(r.wall_s for r in runs)
        elapsed = (tracing.now_ns() - start_ns) / 1e9
        if elapsed + expected > seconds or expected > session.remaining_s() - 5.0:
            break
    return {
        "wall_s": [r.wall_s for r in runs],
        "cpu_s": [r.cpu_s for r in runs],
        "peak_rss_mib": [r.rss_mib for r in runs],
        "setup_s": setup,
    }


def measure_layers(session: Session) -> dict:
    """Two traced CLI runs around one untraced run; per-layer metrics of the first traced one.

    The untraced run sits between the traced ones so that a drift in the
    host's speed hits both sides of the overhead.  Every count must repeat
    exactly in the second traced run; a count that drifts fails that run.
    """

    def traced_run(i: int) -> tuple:
        spans = RESULTS / f"spans-{session.w.name}-seed{session.seed}-{i}.json"
        child, trace, failed = session.cli(traced_spans=spans)
        if trace is None:
            raise Failure(f"traced run wrote no spans: {'; '.join(session.problems)}")
        metrics, problems = tracing.layer_metrics(trace, child.spawn_ns, child.exit_ns)
        return metrics, problems, failed

    first, problems, failed = traced_run(1)
    session.problems += [f"traced run 1: {p}" for p in problems]
    session.failed += bool(problems) and not failed
    untraced, _, _ = session.cli()
    second, problems, failed = traced_run(2)
    problems += [f"count {m} is {second[m]} here and {first[m]} in the first traced run"
                 for m in tracing.COUNT_METRICS if second[m] != first[m]]
    session.problems += [f"traced run 2: {p}" for p in problems]
    session.failed += bool(problems) and not failed
    metrics = dict(first)
    metrics["trace.untraced_wall_s"] = untraced.wall_s
    metrics["trace.overhead_s"] = (first["trace.wall_s"] + second["trace.wall_s"]) / 2 - untraced.wall_s
    return metrics


# -- reporting ---------------------------------------------------------------------------


def tail_percentile(samples: list):
    """``(p, value)`` for the highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    p = (100 * (n - 10)) // n
    rank = -(-p * n // 100)  # nearest-rank index, 1-based
    return p, sorted(samples)[max(rank, 1) - 1]


def environment() -> dict:
    import numpy
    import scipy

    def blas(config):
        info = config["Build Dependencies"]["blas"]
        return {key: info.get(key) for key in ("name", "version", "openblas configuration")}

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy": scipy.__version__,
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads_per_workload": workloads.THREADS,
    }


def summarize(name: str, seed: int, trace: int, samples: dict, layers: dict, session: Session) -> dict:
    lines = [f"{name} (seed {seed}, {workloads.THREADS} BLAS thread, {session.w.command})"]
    metrics = {}
    if trace == 0:
        for metric, unit in END_TO_END.items():
            values = samples[metric]
            metrics[metric] = {"value": statistics.median(values), "unit": unit}
            tail = tail_percentile(values)
            tail_text = (f"p{tail[0]} {tail[1]:.4f}" if tail else "no percentile has 10 samples above it")
            lines.append(f"  {metric:<14} {metrics[metric]['value']:12.4f} {unit:<4} "
                         f"median of {len(values)}; {tail_text}")
    else:
        for metric, value in layers.items():
            metrics[metric] = {"value": value, "unit": tracing.unit_of(metric)}
        layer_sum = sum(layers[f"{layer}.self_s"] for layer in tracing.LAYERS)
        lines.append(f"  traced wall {layers['trace.wall_s']:.4f} s = layer self times {layer_sum:.4f} s; "
                     f"untraced wall {layers['trace.untraced_wall_s']:.4f} s; "
                     f"tracing overhead {layers['trace.overhead_s']:+.4f} s")
        for metric, value in layers.items():
            lines.append(f"  {metric:<36} {value:>14.6g} {tracing.unit_of(metric)}")
    lines.append(f"  fail_frac      {session.failed / session.attempted:.4f} "
                 f"({session.failed} of {session.attempted} runs failed)")
    lines += [f"  FAILED {p}" for p in session.problems]
    print("\n".join(lines), flush=True)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline_ns: int) -> tuple:
    """Measures one workload; returns the JSON result line and the details behind it."""
    if not (SRC / "filmstab" / "cli.py").is_file():
        raise Failure(f"no filmstab source under {SRC}")
    RESULTS.mkdir(exist_ok=True)
    session = Session(workloads.WORKLOADS[name], seed, deadline_ns)
    try:
        samples, layers = {}, {}
        if trace == 0:
            samples = measure_end_to_end(session, seconds)
        else:
            layers = measure_layers(session)
    finally:
        session.close()
    metrics = summarize(name, seed, trace, samples, layers, session)
    result = {
        "correct": not session.problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }
    details = dict(result, workload=name, seed=seed, trace=trace, samples=samples,
                   problems=session.problems, config=session.w.config(seed), environment=environment())
    (RESULTS / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(details, indent=2) + "\n")
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, both modes")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="latest", help="BENCH_<label>.json name for --all")
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    # turn SIGTERM into SystemExit so that spawn() kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.workload:
            deadline = tracing.now_ns() + int(DEADLINE_S * 1e9)
            result, _ = run_workload(args.workload, args.seed, args.seconds, args.trace, deadline)
            print(json.dumps(result))
            return 0
        bench = {"seed": args.seed, "seconds": args.seconds, "environment": environment(), "workloads": {}}
        for name in workloads.WORKLOADS:
            for trace in (0, 1):
                deadline = tracing.now_ns() + int(DEADLINE_S * 1e9)
                _, details = run_workload(name, args.seed, args.seconds, trace, deadline)
                bench["workloads"].setdefault(name, {})[f"trace{trace}"] = details
        path = RESULTS / f"BENCH_{args.label}.json"
        path.write_text(json.dumps(bench, indent=2) + "\n")
        print(f"wrote {path}")
        return 0 if all(r["correct"] for w in bench["workloads"].values() for r in w.values()) else 1
    except Failure as err:
        print(f"benchmark cannot run: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
