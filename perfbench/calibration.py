"""Machine speed, from fixed kernels that call no sparse_kacrice code.

On a shared 2-CPU host the speed drifts by 10-40 % over tens of seconds as
other tenants' load changes, and not evenly: interpreted code and small
dense linear algebra slow down more than streaming over large arrays.
Kernel runs between ops measure the drift, and each op set's times are
scaled to the reference speed by the kernel's median over that set.  Each
workload times the kernel parts that match the work its ops do, which keeps
the ratio of op time to kernel time within a few percent while raw op times
drift.  BASELINE.md gives the spreads unscaled and scaled by each choice of
parts.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Median time of each kernel part on the reference machine (2 CPUs,
#: Python 3.11, numpy 2.4 on one OpenBLAS thread).
REFERENCE_S = {"loop": 0.0034, "linalg": 0.0032, "block": 0.0205}


class Calibration:
    """Times ``parts``, a subset of REFERENCE_S:

    * ``loop``: 60 000 iterations of an interpreted loop;
    * ``linalg``: 30 determinants of a 64 x 64 matrix and softmax-sized
      exponentials of a 2000 x 9 product;
    * ``block``: a 4096 x 5 by 5 x 512 product, its signs and the sign
      changes down its columns, in preallocated 16 MB buffers.
    """

    def __init__(self, parts: tuple[str, ...]):
        self.parts = parts
        rng = np.random.default_rng(0)
        a = rng.random((64, 64))
        self.gram = a @ a.T + np.eye(64)
        self.points = rng.random((2000, 3))
        self.support = rng.random((9, 3))
        if "block" in parts:
            self.basis = rng.random((4096, 5))
            self.draws = rng.standard_normal((5, 512))
            self.values = np.empty((4096, 512))
            self.changes = np.empty((4095, 512), dtype=bool)
        self.samples: list[float] = []

    def _loop(self) -> None:
        total = 0
        for i in range(60000):
            total += i * i

    def _linalg(self) -> None:
        for _ in range(30):
            np.linalg.det(self.gram)
            np.exp(self.points @ self.support.T).sum(axis=1)

    def _block(self) -> None:
        np.matmul(self.basis, self.draws, out=self.values)
        np.sign(self.values, out=self.values)
        np.not_equal(self.values[1:], self.values[:-1], out=self.changes)
        self.changes.sum(axis=0)

    def run(self, times: int = 1) -> None:
        for _ in range(times):
            start = time.perf_counter()
            for part in self.parts:
                getattr(self, f"_{part}")()
            self.samples.append(time.perf_counter() - start)

    def factor(self) -> float:
        """Reference over measured kernel time for the runs since the last
        call; multiply a measured time by it to get reference seconds."""
        measured = statistics.median(self.samples)
        self.samples = []
        return sum(REFERENCE_S[part] for part in self.parts) / measured
