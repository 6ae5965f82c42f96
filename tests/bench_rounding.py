"""Microbenchmark of `rounding`'s array steps at the sizes perfbench's
witness and verify workloads make, and of its scalar ends.

    PYTHONPATH=src python tests/bench_rounding.py

Each array row times one call of `up` on k steps three ways: the shift of
the raw bit patterns that `rounding` takes where every float is >= +0 and
stays so, its general path on the ordered patterns, and k calls of
np.nextafter.  The sizes are those of the calls perfbench makes: one
point's face margins (k = 4 and 1, size 1), gn's six pair bounds (k = 256)
and verify's chain lengths and radii (k = 1 and 16, sizes 10^3 to 10^4).
Not collected by pytest: it measures, it does not check.
"""

import math
import timeit

import numpy as np

from gromovlab import rounding

CASES = [(1, 1), (4, 1), (256, 6), (1, 4000), (16, 4000), (1, 16000)]


def _repeated(x, k):
    for _ in range(k):
        x = np.nextafter(x, math.inf)
    return x


def _per_call_us(f, *args):
    timer = timeit.Timer(lambda: f(*args))
    n, _ = timer.autorange()
    return 1e6 * min(timer.repeat(5, n)) / n


def main() -> None:
    rng = np.random.default_rng(0)
    print(f"{'k':>4} {'size':>6} {'shift us':>9} {'general us':>11} {'nextafter us':>13}")
    for k, size in CASES:
        x = rng.uniform(0.1, 3.0, size)
        mixed = x.copy()
        mixed[0] = -0.0  # one -0.0 sends the call down the general path
        times = [_per_call_us(rounding._shift, x, k), _per_call_us(rounding._shift, mixed, k),
                 _per_call_us(_repeated, x, k)]
        print(f"{k:>4} {size:>6} " + " ".join(f"{t:{w}.2f}" for t, w in zip(times, (9, 11, 13))))
    for name in ("up", "log_up", "atanh_down"):
        print(f"{name}(0.7): {_per_call_us(getattr(rounding, name), 0.7):.3f} us")
    print(f"sum_down of 4: {_per_call_us(rounding.sum_down, 0.7, -0.3, 0.1, 2.5):.3f} us")


if __name__ == "__main__":
    main()
