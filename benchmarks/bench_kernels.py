"""Time the compiled iteration kernels against the scalar Python lane.

Usage:
    python3 benchmarks/bench_kernels.py [--n N] [--repeats R]

Each workload runs on both lanes in the same process (the scalar lane is
forced per call, no env juggling needed) and reports the best wall time
over the repeats plus the resulting speedup.
"""

import argparse
import time

import numpy as np

from attractorlab import _kernels
from attractorlab.maps import GOLDEN_MEAN, gauss_rotation, pioneer_climax_full


def best_time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=200000,
                        help="iterations per workload (default 200000)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="repeats per timing, best is kept (default 5)")
    args = parser.parse_args()

    if not _kernels.USE_NUMBA:
        print("numba lane unavailable (not installed or disabled via "
              "ATTRACTORLAB_NO_NUMBA); only the scalar Python lane would run")
        return

    gauss = gauss_rotation(4.4, GOLDEN_MEAN)
    pioneer = pioneer_climax_full(3.0, 3.0)
    x_gauss = np.array([0.3, 0.1])
    x_pioneer = np.array([0.5, 0.5])
    n = args.n
    stride = 100

    workloads = [
        ("orbit/gauss", lambda fp: _kernels.run_orbit(
            gauss, x_gauss, 1000, n, force_python=fp)),
        ("orbit/pioneer", lambda fp: _kernels.run_orbit(
            pioneer, x_pioneer, 1000, n, force_python=fp)),
        ("norm_sum/gauss", lambda fp: _kernels.run_norm_sum(
            gauss, x_gauss, 1000, n, stride, force_python=fp)),
        ("qr/gauss", lambda fp: _kernels.run_qr(
            gauss, x_gauss, 1000, n, stride, force_python=fp)),
        ("qr/pioneer", lambda fp: _kernels.run_qr(
            pioneer, x_pioneer, 1000, n, stride, force_python=fp)),
    ]

    _kernels.warmup()
    print(f"{'workload':<16} {'numba':>10} {'python':>10} {'speedup':>8}")
    for name, run in workloads:
        fast = best_time(lambda: run(False), args.repeats)
        slow = best_time(lambda: run(True), max(1, args.repeats // 2))
        print(f"{name:<16} {fast * 1e3:>8.1f}ms {slow * 1e3:>8.1f}ms "
              f"{slow / fast:>7.1f}x")


if __name__ == "__main__":
    main()
