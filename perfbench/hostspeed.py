"""Host-speed scaling of the end-to-end timings.

The reference machine (2 vCPUs of a shared host) changes speed in phases of
10-20 s, by up to 1.7x, in CPU time as well as in wall time: other tenants
load the same physical cores. A 30 s run sees one or two phases, so the raw
timings of identical runs spread by 25-40%, whatever is averaged inside a run.

A plain run therefore samples the host's current speed. At fixed points
between timed items (never inside one), at most once every ``EVERY_S``, it
runs a short reference kernel of the same kind of work as the workload, and
once more before and after every command. Each stretch of time between two
samples is weighted by ``nominal / kernel time``, the kernel time being the
median of the ``SMOOTH`` samples around the stretch, and ``nominal`` about
the kernel's time on the reference machine in its fast phase. A scaled time
reads as the time the reference machine would show in that phase. Time spent
in the kernel itself is left out of every interval, scaled or raw.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

EVERY_S = 0.05
SMOOTH = 5


def _svd_kernel():
    """Small complex SVDs and products, like clustering and hrs do."""
    rng = np.random.default_rng(0)
    mats = rng.standard_normal((24, 12, 12)) + 1j * rng.standard_normal((24, 12, 12))
    svd = np.linalg.svd  # bound here, so a traced run's SVD counter never sees it

    def run():
        for a in mats:
            svd(a)
            a @ a.conj().T

    return run


def _gemm_kernel():
    """Mini-batch sized matrix products, like mlp does."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((128, 256))
    w = rng.standard_normal((256, 256))

    def run():
        for _ in range(12):
            x @ w

    return run


# kind -> (kernel factory, nominal kernel seconds)
KERNELS = {"svd": (_svd_kernel, 1.25e-3), "gemm": (_gemm_kernel, 3.4e-3)}


class HostSpeed:
    def __init__(self, kind: str):
        make, self.nominal_s = KERNELS[kind]
        self.kind = kind
        self.kernel = make()
        for _ in range(SMOOTH):  # warm-up, not kept
            self.kernel()
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._factors: list[float] = []

    def sample(self) -> None:
        clock = time.perf_counter
        t0 = clock()
        self.kernel()
        t1 = clock()
        self.starts.append(t0)
        self.ends.append(t1)

    def after(self, fn):
        """Wrap ``fn`` so a sample follows a call when the last is old enough."""
        ends, clock = self.ends, time.perf_counter

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if not ends or clock() - ends[-1] >= EVERY_S:
                self.sample()
            return result

        return wrapper

    def hooks(self, hook_list, points):
        """``hook_list`` with a sampling wrapper around each (owner, attr) in ``points``."""
        current = {(owner, attr): wrapper for owner, attr, wrapper in hook_list}
        out = [(o, a, w) for o, a, w in hook_list if (o, a) not in points]
        for owner, attr in points:
            out.append((owner, attr, self.after(current.get((owner, attr), owner.__dict__[attr]))))
        return out

    def kernel_s(self) -> np.ndarray:
        """Kernel time of every sample, each the median of SMOOTH around it."""
        d = np.array(self.ends) - np.array(self.starts)
        h = SMOOTH // 2
        return np.array([np.median(d[max(0, i - h) : i + h + 1]) for i in range(len(d))])

    def _weights(self) -> list[float]:
        """Weight of gap k, the time from sample k's end to sample k+1's start."""
        if len(self._factors) != len(self.starts) + 1:
            k = self.kernel_s()
            inner = [2.0 * self.nominal_s / (a + b) for a, b in zip(k[:-1], k[1:])]
            # gap -1 (before the first sample) is stored last, at index -1
            self._factors = [*inner, self.nominal_s / k[-1], self.nominal_s / k[0]]
        return self._factors

    def _measure(self, a: float, b: float, scaled: bool) -> float:
        starts, ends, n = self.starts, self.ends, len(self.starts)
        weights = self._weights() if scaled else None
        k = bisect.bisect_right(ends, a) - 1
        total = 0.0
        while True:
            lo = a if k < 0 else max(a, ends[k])
            hi = b if k + 1 >= n else min(b, starts[k + 1])
            if hi > lo:
                total += (hi - lo) * (weights[k] if scaled else 1.0)
            k += 1
            if k >= n or ends[k] >= b:
                return total

    def busy(self, a: float, b: float) -> float:
        """Seconds of [a, b] outside the samples."""
        return self._measure(a, b, False)

    def scaled(self, a: float, b: float) -> float:
        """Seconds of [a, b] outside the samples, each weighted by the host's speed."""
        return self._measure(a, b, True)

    def summary(self) -> dict:
        k = self.kernel_s() * 1e3
        p10, p50, p90 = np.percentile(k, [10, 50, 90]) if len(k) else (0.0, 0.0, 0.0)
        return {
            "kernel": self.kind,
            "nominal_ms": self.nominal_s * 1e3,
            "samples": len(k),
            "kernel_ms_p10_p50_p90": [float(p10), float(p50), float(p90)],
        }
