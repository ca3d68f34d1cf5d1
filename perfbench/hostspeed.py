"""Timing corrected for the speed of the host, which drifts on a shared machine.

On the small shared hosts this benchmark runs on, the same work runs up to
1.7 times slower at some moments than at others, in swings of seconds to
minutes, while the process is never descheduled. A statistic over the fast
end of a run cannot remove a swing that lasts the whole run.

So the benchmark times a fixed kernel, which does not touch ``balm``,
right after each piece of measured work (a solve, an iteration, an episode,
a labelled state). The kernel is a small mix of what the workloads do:
a Cholesky factorization and solve, a matrix product, elementwise numpy on
a small array, block reads through fancy indexing from a 40x9x40x9 array
(as a Schur elimination does) and an interpreter loop. Each of these
slowed with the suite's or the sparse scene's solves over windows of
seconds; a strided pass over an 8 MB array moved against both and is
left out. Each piece's time is multiplied by ``REFERENCE_S`` over the kernel's
time beside it: the result is the time the piece would have taken at the
speed at which the kernel takes ``REFERENCE_S``. The raw times are kept in
each run's report.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg

clock = time.perf_counter

# A fixed scale, near the kernel's median time (2.9 ms, quartiles 2.6-3.2 ms)
# on a 2-core Xeon (2.1 GHz) host with Python 3.11, numpy 2.4, OpenBLAS
# 0.3.31 and one BLAS thread.
REFERENCE_S = 0.0030

_rng = np.random.default_rng(20230826)
_A = _rng.standard_normal((96, 96))
_SPD = _A @ _A.T + 96.0 * np.eye(96)
_B = _rng.standard_normal((256, 256))
_V = _rng.standard_normal((256, 3))
_R = _rng.standard_normal((40, 9, 40, 9))
_H = _rng.standard_normal((4, 9, 3))
_BLOCKS = _rng.integers(0, 40, size=(4, 4))
_NINE = np.arange(9)


def kernel() -> float:
    """Run the fixed kernel once; return the duration of its timed part in seconds.

    The first of its five passes is not timed: it brings the kernel's arrays
    back into the cache after the measured work, so the time does not
    depend on how much memory that work touched.
    """
    total = 0.0
    for i in range(5):
        if i == 1:
            start = clock()
        factor = scipy.linalg.cho_factor(_SPD)
        total += scipy.linalg.cho_solve(factor, _SPD[0])[0]
        total += float((_B @ _B[:, :64]).sum())
        total += float((np.sin(_V) * _V).sum())
        for cams in _BLOCKS:
            block = _R[np.ix_(cams, _NINE, cams, _NINE)]
            total += float((block - np.einsum("aij,bkj->aibk", _H, _H)).sum())
        for k in range(300):
            total += k * 0.5
    return clock() - start


def at_reference_speed(seconds: float, runs: int) -> float:
    """``seconds`` scaled by ``runs`` kernel runs made now."""
    return seconds * REFERENCE_S * runs / sum(kernel() for _ in range(runs))


class Meter:
    """Sums the time of pieces of work, raw and corrected for the host's speed.

    ``start`` begins a piece; ``lap`` ends it, runs the kernel and begins the
    next. With ``calibrate=False`` (traced runs, which report no end-to-end
    metric) no kernel runs and the corrected time equals the raw time.
    """

    def __init__(self, calibrate: bool = True):
        self.calibrate = calibrate
        self.raw_s = 0.0
        self.corrected_s = 0.0
        self.kernel_s = 0.0
        self.kernels = 0
        self.mark = clock()

    def start(self) -> None:
        self.mark = clock()

    def lap(self) -> None:
        piece = clock() - self.mark
        self.raw_s += piece
        if self.calibrate:
            k = kernel()
            self.kernel_s += k
            self.kernels += 1
            self.corrected_s += piece * REFERENCE_S / k
        else:
            self.corrected_s += piece
        self.mark = clock()
