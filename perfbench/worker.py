"""One benchmark process: `python3 perfbench/worker.py '<task JSON>'`.

run.py starts a fresh interpreter with this script for every set-up sample,
cold pass and CLI command, and reads the JSON record printed as the last line
of its output.  Time stamps in the record are CLOCK_MONOTONIC, which run.py
compares with the moment it started the process.

Task kinds:
  scan  measure-scan: set up, then whole passes over the states until
        `seconds` would be exceeded (or exactly `passes` passes), timing
        the calibration kernel between passes; with `setup_only` it exits
        after set-up.
  cold  one large-d-cold pass, timing the calibration kernel after every
        operation.
  cli   `quditmagic.cli.main(argv)` with its output captured.
With `trace` set, the layer wrappers are installed before any package call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

T_START = time.clock_gettime(time.CLOCK_MONOTONIC)


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": " ".join(f"{k}={os.environ[k]}" for k in sorted(os.environ)
                                if k.endswith(("_NUM_THREADS", "_MAXIMUM_THREADS")))}


class Recorder:
    """Times operations one at a time and checks each result afterwards; with
    a calibration kernel, also times the kernel once after every operation."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.kernel = None
        self.kernel_s: list[float] = []
        self.ops: list = []
        self.problems: list[str] = []

    def run(self, name, thunk, check):
        t0 = time.perf_counter()
        try:
            result = thunk()
        except Exception as exc:  # a failed call is a failed operation
            seconds, result = time.perf_counter() - t0, None
            problems = [f"{type(exc).__name__}: {exc}"]
        else:
            seconds = time.perf_counter() - t0
            with self.paused():
                try:
                    problems = check(result)
                except Exception as exc:
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
        self.ops.append([name, seconds, not problems])
        self.problems.extend(f"{name}: {p}" for p in problems[:3])
        if self.kernel is not None:
            self.kernel_s.append(self.kernel.time())
        return None if problems else result

    def paused(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()


def run_scan(task, rec: Recorder) -> dict:
    import speed
    import workloads

    workloads.scan_setup()
    ready = now()
    if task.get("setup_only"):
        return {"ready": ready}
    with rec.paused():
        states = workloads.scan_states(task["seed"])
    kernel = speed.Kernel()
    rec.kernel_s = kernel.sample(2)
    passes, t0 = [], time.perf_counter()
    while True:
        first = len(rec.ops)
        for s in states:
            rec.run(s.name, lambda: workloads.scan_bundle(s),
                    lambda out: workloads.check_scan(s, out))
        passes.append(rec.ops[first:])
        rec.kernel_s.extend(kernel.sample(2))
        elapsed = time.perf_counter() - t0
        if task.get("passes"):
            if len(passes) >= task["passes"]:
                break
        elif elapsed * (len(passes) + 1) / len(passes) > task["seconds"]:
            break
    return {"ready": ready, "passes": passes}


def run_cold(task, rec: Recorder) -> dict:
    import speed
    import workloads

    ready = now()
    rec.kernel = speed.Kernel()
    workloads.cold_pass(task["seed"], rec.run)
    return {"ready": ready, "passes": [rec.ops]}


def run_cli(task, tracer) -> dict:
    import quditmagic.cli

    ready = now()
    if tracer:
        tracer.import_s.append(ready - T_START)
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = quditmagic.cli.main(task["argv"])
        except SystemExit as exc:   # argparse errors and SystemExit("...")
            rc = exc.code if isinstance(exc.code, int) else 1
    done = now()
    return {"ready": ready, "done": done, "rc": rc,
            "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]}


def main() -> int:
    task = json.loads(sys.argv[1])
    tracer = None
    if task.get("trace"):
        import layers
        tracer = layers.Tracer()
    import quditmagic

    if os.path.dirname(os.path.dirname(os.path.abspath(quditmagic.__file__))) != task["src"]:
        print(f"quditmagic imported from {quditmagic.__file__}, not {task['src']}",
              file=sys.stderr)
        return 3
    if task["kind"] == "cli":
        record = run_cli(task, tracer)
    else:
        if tracer:
            tracer.install()
        rec = Recorder(tracer)
        record = (run_scan if task["kind"] == "scan" else run_cold)(task, rec)
        record["problems"] = rec.problems[:20]
        record["kernel_s"] = rec.kernel_s
    if tracer:
        tracer.uninstall()
        record["layers"] = tracer.raw()
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["env"] = environment()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
