"""Run one nash benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ash-desk --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: nash is imported from ``src/`` there.  With
``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
separate traced run on the same inputs.  Every timed interval is reported
scaled by the reference kernel sampled inside it (see refkernel.py); the
human-readable lines above the JSON give the raw figures beside the scaled
ones.
"""

from __future__ import annotations

import os

# one BLAS thread: no loss of speed at these sizes and one less source of noise
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from refkernel import PERIOD_S, R_NOMINAL_S, Interval, ReferenceKernel, Sampler  # noqa: E402

MIN_INSIDE = 3  # kernel samples inside an interval needed to scale it by them alone
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_s": "s",
    "rel_error": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "engine.sweeps": "count",
    "engine.self_s": "s",
    "engine.self_ms_per_sweep": "ms",
    "ash.em_s": "s",
    "ash.em_iters": "count",
    "ash.posterior_s": "s",
    "nets.train_s": "s",
    "nets.adam_steps": "count",
    "nets.forward_per_step": "ratio",
    "nets.posterior_s": "s",
    "fused.graph_build_s": "s",
    "fused.posterior_s": "s",
    "fused.posterior_calls": "count",
    "fused.learn_s": "s",
    "fused.learn_evals": "count",
    "data.standardize_s": "s",
    "data.csv_parse_s": "s",
    "data.csv_mb": "MB",
    "model_io.save_s": "s",
    "model_io.load_s": "s",
    "model_io.kb": "KB",
    "pgm.read_s": "s",
    "pgm.write_s": "s",
    "simulate.replicate_s": "s",
    "simulate.replicates": "count",
    "simulate.thread_speedup": "ratio",
    "cli.startup_s": "s",
    "ref.kernel_s": "s",
    "ref.scale": "ratio",
    "trace.overhead_s": "s",
}


class Run:
    """Operations of one process: their intervals, failures and check results."""

    def __init__(self, sampler, nominal: float):
        self.sampler = sampler
        self.nominal = nominal
        self.intervals = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rel_errors: list[float] = []

    def measure(self, work, spawns: bool = False):
        """Run ``work()`` and record its interval.  Work that runs a child
        process returns the child's report of its own kernel samples."""
        if spawns:
            started = time.perf_counter()
            result = work()
            interval = Interval.from_child(time.perf_counter() - started, result.report)
        else:
            result, interval = self.sampler.measure(work)
        self.intervals.append(interval)
        return result, interval

    def round(self, ops, on_op=None) -> list[tuple[str, object]]:
        """Run every op once, then check the outputs.

        Returns (name, interval) for each op that did not fail.
        """
        timings, outputs = [], []
        for i, op in enumerate(ops):
            if on_op is not None:
                on_op(i)
            self.attempted += 1
            try:
                out, interval = self.measure(op.run, op.spawns())
            except Exception as exc:  # a failed operation is counted, and the run goes on
                self.failed += 1
                print(f"failed: {op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            timings.append((op.name, interval))
            outputs.append((op, out))
        for op, out in outputs:
            rel = self.check(op, out)
            if rel is not None:
                print(f"  {op.name}: error ratio {rel:.4f}")
        return timings

    def check(self, op, out) -> float | None:
        try:
            rel = op.check(out)
        except CheckFailed as exc:
            self.problems.append(f"{op.name}: {exc}")
            print(f"check failed: {op.name}: {exc}", file=sys.stderr)
            return None
        if rel is not None:
            self.rel_errors.append(rel)
        return rel

    @property
    def samples(self) -> list[float]:
        """Every kernel sample taken inside an interval of the run."""
        return [k for iv in self.intervals for k in iv.inside]

    @property
    def kernel_s(self) -> float:
        return statistics.mean(self.samples)

    def scaled(self, interval) -> float:
        """Seconds at the reference speed: by the samples inside the interval when
        there are enough of them, otherwise by all the run's samples."""
        inside = interval.inside
        kernel = statistics.mean(inside) if len(inside) >= MIN_INSIDE else self.kernel_s
        return interval.seconds * self.nominal / kernel


def timed_run(run: Run, ops, seconds: float):
    """Whole rounds until another round would pass ``seconds``; at least one."""
    timings = []
    started = time.perf_counter()
    rounds = 0
    while True:
        timings += run.round(ops)
        rounds += 1
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / rounds > seconds:
            return timings, rounds


def traced_run(run: Run, ops, warm, cli, workload: str, nominal: float):
    """An untraced and a traced pass over one round, in process; returns the layer metrics.

    For ``cli-files`` a third pass runs the same commands as subprocesses, as
    the timed run does, to measure what interpreter start and import add.
    """
    from spans import Tracer, instrument, layer_metrics

    cli.in_process = True
    warm.run()
    plain = run.round(ops)
    tracer = Tracer()
    with instrument(tracer):
        traced = run.round(ops, on_op=lambda i: setattr(tracer, "op", i))
    # nothing is sampled inside these in-process operations: use the bursts around them
    kernel_s = statistics.mean(k for _, iv in plain + traced for k in iv.around)
    scale = nominal / kernel_s
    metrics = layer_metrics(tracer, scale)
    n = min(len(plain), len(traced))
    metrics["trace.overhead_s"] = scale * (sum(iv.seconds for _, iv in traced) - sum(iv.seconds for _, iv in plain)) / max(n, 1)
    metrics["cli.startup_s"] = 0.0
    metrics["simulate.thread_speedup"] = 0.0
    if workload == "cli-files":
        cli.in_process = False
        spawned = {name: iv.seconds for name, iv in run.round(ops)}
        in_process = {name: iv.seconds for name, iv in plain}
        gaps = [spawned[k] - in_process[k] for k in spawned if k in in_process]
        metrics["cli.startup_s"] = scale * statistics.mean(gaps) if gaps else 0.0
        t1, t2 = spawned.get("simulate --threads 1"), spawned.get("simulate --threads 2")
        metrics["simulate.thread_speedup"] = t1 / t2 if t1 and t2 else 0.0
    metrics["ref.kernel_s"] = kernel_s
    metrics["ref.scale"] = scale
    return metrics, tracer


def end_to_end(run: Run, timings, setup_s: float, workload: str) -> dict[str, float]:
    if not timings:
        return {}
    scaled = [run.scaled(iv) for _, iv in timings]
    who = resource.RUSAGE_CHILDREN if workload == "cli-files" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(scaled) / sum(scaled),
        "op_p50_s": statistics.median(scaled),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    if run.rel_errors:
        metrics["rel_error"] = statistics.mean(run.rel_errors)
    return {name: metrics[name] for name in END_TO_END if name in metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ash-desk", "side-info", "denoise", "cli-files"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # in-operation kernel samples would add their time to the spans of a traced run
    run = Run(Sampler(ReferenceKernel(), period=None if args.trace else PERIOD_S), R_NOMINAL_S)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        cli = workloads.CliRunner(SRC, os.path.join(workdir, "child-report.json"))
        # the cold set-up goes first, before this process has imported nash
        started = time.perf_counter()
        res = cli([])
        if res.code != 0:
            last = res.stderr.strip().splitlines()[-1:] or ["no output"]
            print(f"error: cannot import nash from {SRC}: {last[0]}", file=sys.stderr)
            return 2
        setup = Interval.from_child(time.perf_counter() - started, res.report)
        run.intervals.append(setup)

        sys.path.insert(0, SRC)
        import nash

        ops, warm = workloads.WORKLOADS[args.workload](nash, args.seed, workdir, cli)
        if args.trace:
            metrics, tracer = traced_run(run, ops, warm, cli, args.workload, R_NOMINAL_S)
            tracer.dump(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"))
            units = PER_LAYER
        else:
            warm.run()
            timings, rounds = timed_run(run, ops, args.seconds)
            metrics = end_to_end(run, timings, run.scaled(setup), args.workload)
            units = END_TO_END
            print(f"{args.workload} seed {args.seed}: {rounds} round(s)")
            for name, iv in [("setup: import nash", setup), *timings]:
                print(f"  op {name:<34} raw {iv.seconds:8.4f} s  scaled {run.scaled(iv):8.4f} s"
                      f"  ({len(iv.inside)} samples inside)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = not run.problems and len(metrics) == len(units)
    print(f"attempted {run.attempted}, failed {run.failed}")
    if not args.trace:
        print(f"  ref.kernel_s {run.kernel_s:.6f} s (nominal {R_NOMINAL_S} s, {len(run.samples)} samples, "
              f"{min(run.samples):.6f}..{max(run.samples):.6f}), ref.scale {R_NOMINAL_S / run.kernel_s:.4f}")
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name:<26} {metrics[name]:12.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
