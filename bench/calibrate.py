"""A fixed reference job that measures how fast the machine runs right now.

The benchmark runs this script as a fresh process between the contourstat
commands and divides each command's median wall time by this job's median
wall time in the same run.  The job mixes what the commands spend their time
on: interpreter start and the numpy/scipy imports, pure-Python text parsing,
and Hermitian eigendecompositions.  It never changes, so a change to the
program moves the calibrated times, while a machine that runs slower for a
while, because its neighbours are busy, moves them much less.

It prints one checksum line, which the benchmark checks.
"""

import numpy as np
import scipy.special  # noqa: F401  (contourstat imports it; its import is part of the job)

rng = np.random.default_rng(20130211)
text = " ".join(map(str, rng.integers(0, 256, 150_000).tolist()))
values = [int(token) for token in text.split()]
# the size of the largest eigensystem in the workloads, so that the job
# feels contention for cache and memory bandwidth as the bootstraps do
a = rng.standard_normal((300, 300)) + 1j * rng.standard_normal((300, 300))
h = a + a.conj().T
top = 0.0
for _ in range(3):
    top += float(np.linalg.eigh(h)[0][-1])
print(f"calibrate {len(values)} {sum(values)} {top:.6f}")
