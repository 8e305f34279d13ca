"""Fixed reference work, timed next to every benchmark call.

On a shared 2-core Xeon VM, identical work runs 20 to 40 percent slower for
tens of seconds at a time as other tenants load the host, with no steal time
to show for it, so raw times of repeated runs spread by more than any useful
bound. The benchmark therefore reports call times in units of this kernel's
time (`cal`), measured just before and after each call. The kernel mixes what
the workloads spend time on: interpreter work, seeded generators and small
array operations, many small stacked `eigvalsh` calls and one n = 32 stack.
It uses numpy only, never numrad, and keeps its own reference to `eigvalsh`,
so tracing never sees it and no change to numrad can speed it up.
"""

from __future__ import annotations

import time

import numpy as np

_eigvalsh = np.linalg.eigvalsh


def _hermitian(rng, shape):
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return g + np.swapaxes(g.conj(), -1, -2)


class Yardstick:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = _hermitian(rng, (8, 4, 4))
        self.big = _hermitian(rng, (64, 32, 32))

    def seconds(self) -> float:
        """Duration of one run of the kernel (about 15 ms on a 2-core Xeon VM)."""
        t0 = time.perf_counter()
        counts: dict[int, int] = {}
        for i in range(4000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        for i in range(150):
            g = np.random.default_rng([7, i]).standard_normal((4, 4))
            np.einsum("ij,ik->jk", g, g)
            _eigvalsh(self.small)
        _eigvalsh(self.big)
        return time.perf_counter() - t0
