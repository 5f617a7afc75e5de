"""Permutation sampling converges on the exact Shapley values.

The glove game has a known answer (1/6, 1/6, 2/3): two owners hold left
gloves, one holds the right glove, and only a matched pair sells. The script
sweeps the permutation budget and prints estimate error against the reported
standard error.
"""

from __future__ import annotations

import numpy as np

from royaltyshare import CoalitionGame, EstimatorConfig, exact_shapley, permutation_sample


def glove(s: int) -> float:
    has_left = bool(s & 0b011)
    has_right = bool(s & 0b100)
    return 1.0 if has_left and has_right else 0.0


def main() -> None:
    game = CoalitionGame(3, glove)
    exact = exact_shapley(game)
    print(f"exact shapley: {np.array2string(exact, precision=4)}")
    print()
    print(f"{'m':>7}  {'max abs error':>13}  {'max stderr':>10}  {'oracle calls':>12}")
    for m in (10, 100, 1000, 10000, 100000):
        fresh = CoalitionGame(3, glove)
        report = permutation_sample(fresh, EstimatorConfig(num_permutations=m, seed=0))
        err = np.max(np.abs(report.estimate - exact))
        print(
            f"{m:>7}  {err:>13.5f}  {np.max(report.stderr):>10.5f}"
            f"  {report.oracle_calls:>12}"
        )
    print()
    print("Error shrinks like 1/sqrt(m); memoization keeps oracle calls at the")
    print("8 distinct coalitions no matter how many permutations are drawn.")


if __name__ == "__main__":
    main()
