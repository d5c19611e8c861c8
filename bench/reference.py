"""A fixed unit of reference work that measures how fast the machine runs right now.

The benchmark runs on shared cores whose speed drifts by tens of percent
over minutes as other tenants load the host.  run.py times the reference
unit before and after every top-level call and scales the call's wall time
by the unit's nominal time over the mean of the two measurements, which
cancels most of that drift.

One unit serves every workload, so it mixes the kinds of work that dominate
them: a Python loop over small arrays (per-subset validation), enumeration
of combinations with edge-count gathers and the entropy kernel (the scans),
row-by-row sampling into a freshly allocated triangle with packing,
unpacking and a log-sum over gathered pairs (the samplers and the likelihood
ratio), and formatting and parsing edge lines (edge-list I/O).  It uses
numpy and the standard library only, never plantedscan, so a change to the
package cannot move it.
"""

from __future__ import annotations

import itertools
import time

import numpy as np


class Reference:
    """Times one unit of work; `nominal_s` is its time on an idle core of the
    machine the benchmark was defined on (2-core Intel Xeon at 2.1 GHz,
    Python 3.11, numpy 2.4), so scaled times read as seconds there."""

    nominal_s = 0.0091

    def __init__(self):
        rng = np.random.default_rng(11)
        self._tuples = [tuple(int(v) for v in rng.choice(512, size=int(k), replace=False))
                        for k in rng.integers(1, 9, size=300)]
        # fixed across units, like a likelihood-ratio problem's pair index
        self._index = rng.integers(0, 560 * 559 // 2, size=(1024, 45))

    def unit(self) -> float:
        acc = 0.0
        for t in self._tuples:
            d = np.asarray(sorted(t), dtype=np.int64)
            acc += int(d[0] < 0 or d[-1] >= 512) + int(np.any(np.diff(d) == 0))

        rng = np.random.Generator(np.random.PCG64(14))
        n = 560
        bits = np.concatenate([rng.random(n - 1 - i) < 0.05 for i in range(n - 1)])
        tri = np.unpackbits(np.packbits(bits.view(np.uint8)), count=bits.size).view(bool)
        for _ in range(4):
            logs = np.where(tri[self._index], 1.0986, -0.1112).sum(axis=1)
            acc += float(np.exp(logs - logs.max()).sum())

        m = 28
        i = np.arange(m, dtype=np.int64)
        off = i * (2 * m - i - 1) // 2
        rows = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(m), 4)),
                           dtype=np.int64).reshape(-1, 4)
        counts = np.zeros(rows.shape[0], dtype=np.int64)
        for a in range(3):
            base = off[rows[:, a]] - rows[:, a] - 1
            for b in range(a + 1, 4):
                counts += tri[base + rows[:, b]]
        x = np.maximum(counts / 0.3 - 1.0, 0.0)
        acc += float(((1.0 + x) * np.log1p(x) - x).sum())

        lines = [f"0 {int(j)}\n" for j in np.flatnonzero(tri)[:3000]]
        return acc + sum(int(a) + int(b) for a, b in (line.split() for line in lines))

    def seconds(self) -> float:
        t0 = time.perf_counter()
        self.unit()
        return time.perf_counter() - t0
