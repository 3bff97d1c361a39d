"""Timing of the structured p = 2 window norms against dense SVDs.

The table times ``lower_norm_window`` and ``window_norm`` (diagonal path for
multiplication operators, banded Gram eigenvalue otherwise) against a dense
SVD of the same block, at the window sizes of the Fredholm and limit
verdicts, and prints the absolute difference of the two values.

Usage: python benchmarks/bench_kernels.py [--repeats N]
"""

import argparse
import time

import numpy as np

from limitops import Space, Window
from limitops.operator import identity, shift_operator, window_norm
from limitops.fredholm import _tall_block, lower_norm_window


def best_of(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return out, min(times)


def window_norm_cases():
    """(label, structured call, dense-SVD call) at the verdict sizes."""
    z1 = Space(kind="lattice", dim=1)
    z2 = Space(kind="lattice", dim=2)

    def lower(B, w):
        return (lambda: lower_norm_window(B, w),
                lambda: np.linalg.svd(_tall_block(B, w.points), compute_uv=False)[-1])

    cases = []
    for r in (100, 200, 400):
        w = Window(z1, (0,), r)
        cases.append((f"Z1 S-I lower r={r}",
                      *lower(shift_operator(z1, (1,)) - identity(z1), w)))
    w = Window(z1, (0,), 400)
    cases.append(("Z1 I lower r=400", *lower(identity(z1), w)))
    cases.append(("Z1 I norm r=400", lambda: window_norm(identity(z1), w, w),
                  lambda: np.linalg.svd(identity(z1).block(w, w),
                                        compute_uv=False)[0]))
    B = identity(z2) + 0.3 * shift_operator(z2, (0, 1))
    cases.append(("Z2 I+0.3S lower r=12", *lower(B, Window(z2, (0, 0), 12))))
    return cases


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()

    print(f"{'window norm (p = 2)':<22}{'structured':>12}{'dense SVD':>12}"
          f"{'|diff|':>12}")
    for label, fast, slow in window_norm_cases():
        out_fast, t_fast = best_of(fast, args.repeats)
        out_slow, t_slow = best_of(slow, args.repeats)
        diff = abs(float(out_fast) - float(out_slow))
        print(f"{label:<22}{t_fast * 1e3:>10.2f}ms{t_slow * 1e3:>10.2f}ms{diff:>12.1e}")


if __name__ == "__main__":
    main()
