"""Machine-speed calibration for the benchmark's times.

On a shared cloud VM the vCPUs share physical cores with other tenants, and
identical code runs at a speed that drifts by tens of per cent over tens of
seconds.  Measured on a 2-vCPU VM: 100 `sre` calls at (d, N) = (3, 3) took
0.13 s in one minute and 0.21 s in the next, in wall and in CPU time alike,
and ten 30 s measure-scan runs completed between 15 and 22 passes.  Medians
over the passes of one run cannot remove a drift that outlasts the run.

The fixed kernel below runs the same kinds of work as the package and is
timed many times over each run, between its processes and passes.  Every
time the benchmark reports is multiplied by the run's speed factor,
REFERENCE_S / median(kernel times), so it reads as seconds at the speed at
which the kernel takes REFERENCE_S.  Alternating the kernel with the `sre`
calls above for 150 s, the raw times spread by 14 % between 15 s blocks and
the scaled ones by 4 %; over ten 30 s runs of each workload, scaling cut
the spread (IQR / median) of wall_s on measure-scan from 21 % to 14 % and
of op_p50_ms on large-d-cold from 18 % to 9 %.  run.py prints the factor
and the raw wall time beside the scaled metrics.  The kernel's 9 MB of
arrays count in the peak RSS of the workers that time it (measure-scan
and large-d-cold).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.040


class Kernel:
    """A batched einsum over a (729, 27, 27) complex table, Kronecker
    products of 2x2 matrices and tuple-keyed dictionary inserts."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.table = rng.normal(size=(729, 27, 27)) + 0j
        self.rho = self.table[0].copy()
        self.pair = (np.eye(2, dtype=np.complex128),
                     np.array([[0, 1], [1, 0]], dtype=np.complex128))
        self.time()   # the first call pays for numpy's lazy set-up

    def time(self) -> float:
        t0 = time.perf_counter()
        np.einsum("kij,ji->k", self.table, self.rho)
        for i in range(300):
            op = np.ones((1, 1), dtype=np.complex128)
            for k in range(5):
                op = np.kron(op, self.pair[(i >> k) & 1])
        seen = {}
        for i in range(20000):
            seen[(i, 7 * i)] = i
        return time.perf_counter() - t0

    def sample(self, runs: int) -> list[float]:
        return [self.time() for _ in range(runs)]


def factor(kernel_s: list[float]) -> float:
    """Scale for the times of a run during which the kernel took `kernel_s`."""
    return REFERENCE_S / statistics.median(kernel_s)
