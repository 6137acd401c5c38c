"""quditmagic benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from its `src/`.
Workloads (their reasons are in BENCHMARK.json):

  measure-scan  warm in-process measure bundles over a (d, N) ladder
  large-d-cold  fresh process per pass: large-D one-shot measures, expansions
  clifford-cli  fresh process per `quditmagic` command
  all           the three above, untraced and traced, with every metric

The load is one closed-loop client: one operation at a time, and worker
processes run one after another.  BLAS and OpenMP are pinned to one thread.
Whole passes over a workload's operations repeat while another pass still
fits in --seconds; there is always at least one.  Times are scaled to one
reference machine speed by the run's speed factor, from a calibration
kernel timed between the run's processes and passes (see speed.py); the
factor and the raw wall time are printed too.  With --trace 0 the last
line carries the end-to-end metrics; with --trace 1 a single traced pass
gives the per-layer metrics (call counts, self times, layer counters).
Every operation's result is checked outside its timed region; an exception,
a nonzero exit or a failed check counts as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SCAN_SETUPS = 3          # fresh set-ups per measure-scan run; setup_s is their median
KERNEL_RUNS = 3          # calibration kernel runs before every worker process
RUN_LIMIT = 165          # seconds per workload run; a worker still running then is
                         # killed and counts as failed, so every run ends in time

# End-to-end metrics that only one workload reaches.  Every workload reports
# every metric BENCHMARK.json lists, so these are kept here, with their
# bounds.  Each is the median over passes of the summed time of the
# operations it names (an operation matches the name or the name plus a
# suffix).  name: (workload, operations, bound); seconds, lower is better.
DETAILS = {
    "sre_2x6_s": ("large-d-cold", "sre 2,6", 0.25),
    "xi2_2x4_s": ("large-d-cold", "xi2_expansion 2,4", 0.25),
    "eigenstates_2x2_s": ("clifford-cli", "eigenstates 2,2", 0.25),
    "catalog_verify_s": ("clifford-cli", "catalog verify", 0.25),
    "extent_solve_s": ("clifford-cli", "extent", 0.25),
    "search_s": ("clifford-cli", "search", 0.25),
    "distill_sweep_s": ("clifford-cli", "distill sweep", 0.25),
}
# any failed operation is a regression
FAIL_FRAC = ("fail_frac", "ratio", 0.0)
# The 90th percentile is reported only with at least ten operations beyond
# it; a clifford-cli pass has 21.  (name, unit, bound)
OP_P90 = ("op_p90_ms", "ms", 0.25)
P90_MIN_OPS = 100
DETAIL_UNITS = {FAIL_FRAC[0]: FAIL_FRAC[1], OP_P90[0]: OP_P90[1],
                **{name: "s" for name in DETAILS}}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(THREADS)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Run:
    """Everything one workload run measured, times in raw seconds."""

    def __init__(self, workload: str):
        import speed

        self.workload = workload
        self.kernel = speed.Kernel()
        self.kernel_s: list[float] = []   # calibration kernel times over the run
        self.spawn_kernel_s: list[float] = []   # the ones taken before each worker
        self.deadline = time.monotonic() + RUN_LIMIT
        self.setups: list[float] = []
        self.walls: list[float] = []
        self.passes: list[list] = []      # per pass: [name, seconds, ok] per operation
        self.problems: list[str] = []
        self.rss_mb: list[float] = []
        self.layers: list[dict] = []
        self.env: dict = {}
        self.crashed = 0

    def spawn(self, task: dict):
        """Run one worker; returns (record or None, its start time)."""
        task = dict(task, src=SRC)
        self.spawn_kernel_s.extend(self.kernel.sample(KERNEL_RUNS))
        self.kernel_s.extend(self.spawn_kernel_s[-KERNEL_RUNS:])
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run([sys.executable, WORKER, json.dumps(task)], cwd=ROOT,
                                  env=child_env(), capture_output=True, text=True,
                                  timeout=max(self.deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            return self._crash(f"{task['kind']} worker timed out"), t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return self._crash(f"{task['kind']} worker exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-400:]}"), t0
        record = json.loads(lines[-1])
        self.rss_mb.append(record["rss_mb"])
        self.env = record["env"]
        self.problems.extend(record.get("problems", []))
        self.kernel_s.extend(record.get("kernel_s", []))
        if "layers" in record:
            self.layers.append(record["layers"])
        return record, t0

    def add_pass(self, ops: list, setup: float = 0.0) -> None:
        self.passes.append(ops)
        self.walls.append(setup + sum(s for _, s, _ in ops))

    def _crash(self, why: str):
        self.crashed += 1
        self.problems.append(why)
        return None

    @property
    def attempted(self) -> int:
        return sum(len(p) for p in self.passes) + self.crashed

    @property
    def failed(self) -> int:
        return sum(not ok for p in self.passes for _, _, ok in p) + self.crashed

    @property
    def speed_factor(self) -> float:
        import speed

        return speed.factor(self.kernel_s)

    @property
    def setup_factor(self) -> float:
        """Set-ups run right after the kernel samples taken before each worker
        (for measure-scan, all before the scan itself)."""
        import speed

        return speed.factor(self.spawn_kernel_s)


def more_passes(t0: float, done: int, seconds: float) -> bool:
    """Whether another pass of the mean length still ends within `seconds`."""
    elapsed = time.monotonic() - t0
    return elapsed * (done + 1) / done <= seconds


def measure_scan(seed: int, seconds: float, trace: bool) -> Run:
    """Set-up samples in processes of their own, then one process for the
    scan, which gets what is left of --seconds."""
    run = Run("measure-scan")
    start = time.monotonic()
    if trace:
        tasks = [{"kind": "scan", "seed": seed, "passes": 1, "trace": True}]
    else:
        tasks = [{"kind": "scan", "seed": seed, "setup_only": True}] * SCAN_SETUPS
    for task in tasks:
        record, t0 = run.spawn(task)
        if record is not None:
            run.setups.append(record["ready"] - t0)
    if not trace:
        left = max(seconds - (time.monotonic() - start), 1.0)
        record, _ = run.spawn({"kind": "scan", "seed": seed, "seconds": left})
    for ops in record["passes"] if record is not None else []:
        run.add_pass(ops)
    return run


def large_d_cold(seed: int, seconds: float, trace: bool) -> Run:
    run = Run("large-d-cold")
    start, done = time.monotonic(), 0
    while True:
        done += 1
        record, t0 = run.spawn({"kind": "cold", "seed": seed, "trace": trace})
        if record is not None:
            run.setups.append(record["ready"] - t0)
            run.add_pass(record["passes"][0], run.setups[-1])
        if trace or not more_passes(start, done, seconds):
            return run


def clifford_cli(seed: int, seconds: float, trace: bool) -> Run:
    import workloads

    run = Run("clifford-cli")
    commands = workloads.cli_commands(seed)
    start = time.monotonic()
    while True:
        ops = []
        for name, argv in commands:
            record, t0 = run.spawn({"kind": "cli", "argv": argv, "trace": trace})
            if record is None:
                continue
            run.setups.append(record["ready"] - t0)
            problems = workloads.check_cli(name, record["rc"], record["stdout"])
            if problems and record["stderr"]:
                problems.append(record["stderr"].strip()[-300:])
            run.problems.extend(f"{name}: {p}" for p in problems)
            ops.append([name, record["done"] - t0, not problems])
        run.add_pass(ops)
        if trace or not more_passes(start, len(run.passes), seconds):
            return run


WORKLOADS = {"measure-scan": measure_scan, "large-d-cold": large_d_cold,
             "clifford-cli": clifford_cli}


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(run: Run) -> dict[str, float]:
    """The end-to-end metrics BENCHMARK.json lists, at the reference speed."""
    f = run.speed_factor
    latencies = [s for ops in run.passes for _, s, _ in ops]
    return {
        "setup_s": run.setup_factor * statistics.median(run.setups),
        "wall_s": f * statistics.median(run.walls),
        "ops_per_s": statistics.median(len(ops) / wall for ops, wall in zip(run.passes, run.walls)) / f,
        "op_p50_ms": f * 1e3 * percentile(latencies, 50),
        "peak_rss_mb": max(run.rss_mb),
    }


def details(run: Run) -> dict[str, float]:
    """fail_frac, op_p90_ms where it applies and the workload's DETAILS,
    times at the reference speed."""
    out = {FAIL_FRAC[0]: run.failed / run.attempted}
    latencies = [s for ops in run.passes for _, s, _ in ops]
    if len(latencies) >= P90_MIN_OPS:
        out["op_p90_ms"] = run.speed_factor * 1e3 * percentile(latencies, 90)
    for metric, (workload, prefix, _) in DETAILS.items():
        if workload == run.workload:
            out[metric] = run.speed_factor * statistics.median(
                sum(s for name, s, _ in ops if name == prefix or name.startswith(prefix + " "))
                for ops in run.passes)
    return out


def report(run: Run, metrics: dict, units: dict, seed: int, trace: bool) -> None:
    """Human-readable lines: set-up, every metric with its unit, failures."""
    env = run.env
    print(f"workload {run.workload}  seed {seed}  trace {int(trace)}  "
          f"nproc {len(os.sched_getaffinity(0))}  threads {env.get('threads')}")
    print(f"python {env.get('python')}  numpy {env.get('numpy')}  "
          f"scipy {env.get('scipy')}  {env.get('blas')}")
    n_ops = sum(len(p) for p in run.passes)
    print(f"{len(run.passes)} passes, {n_ops} operations, {len(run.setups)} set-ups, "
          f"{run.failed} failed")
    print(f"speed factor {run.speed_factor:.4f} from {len(run.kernel_s)} kernel runs; "
          f"raw wall_s {statistics.median(run.walls):.6g} s")
    if not trace:
        metrics, units = {**metrics, **details(run)}, {**units, **DETAIL_UNITS}
    for name, value in metrics.items():
        print(f"  {name:46s} {value:14.6g} {units[name]}")
    if trace:
        print(f"  traced wall_s {run.speed_factor * statistics.median(run.walls):.6g} s")
    for problem in run.problems[:20]:
        print(f"  FAILED {problem}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict):
    import layers

    run = WORKLOADS[name](seed, seconds, trace)
    if not run.passes:
        raise RuntimeError(f"{name}: no pass completed: {run.problems[:3]}")
    if trace:
        metrics = layers.finalize(layers.merge(run.layers))
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = end_to_end(run)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    return run, metrics, units


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "quditmagic", "__init__.py")):
        print(f"no quditmagic package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    sys.path.insert(0, SRC)
    import compileall

    for path in (SRC, HERE):   # no run pays for compiling or writing bytecode
        compileall.compile_dir(path, quiet=1)
    spec = load_spec()
    if args.workload == "all":
        return run_all(args, spec)
    run, metrics, units = run_workload(args.workload, args.seed, args.seconds,
                                       bool(args.trace), spec)
    report(run, metrics, units, args.seed, bool(args.trace))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0



def run_all(args, spec) -> int:
    """Every workload untraced and traced; all end-to-end metrics with units."""
    summary, attempted, failed = {}, 0, 0
    for name in WORKLOADS:
        run, metrics, units = run_workload(name, args.seed, args.seconds, False, spec)
        traced, _, _ = run_workload(name, args.seed, args.seconds, True, spec)
        report(run, metrics, units, args.seed, False)
        extra = details(run)
        untraced_wall = metrics["wall_s"]
        traced_wall = traced.speed_factor * statistics.median(traced.walls)
        print(f"  wall_s untraced {untraced_wall:.6g} s, traced {traced_wall:.6g} s "
              f"(tracing overhead {traced_wall / untraced_wall - 1:+.1%})")
        summary[name] = {**{k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
                         **{k: {"value": v, "unit": DETAIL_UNITS[k]} for k, v in extra.items()},
                         "traced_wall_s": {"value": traced_wall, "unit": "s"}}
        attempted += run.attempted + traced.attempted
        failed += run.failed + traced.failed
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": summary}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
