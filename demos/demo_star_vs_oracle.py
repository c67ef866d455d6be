"""Star-graph infection chain: simulation against the exact linear solve.

The star with n leaves is the reservoir that keeps the infection alive on
trees with one dominant degree.  Its (infected leaves, center) chain is
small enough to solve exactly, which makes it a sharp correctness check
for the stochastic engine — and a window on the quasi-equilibrium leaf
count K = lam*n/(lam+1).

Run:  python demos/demo_star_vs_oracle.py
"""

import numpy as np

from pertree import StarState, star_mean_absorption, star_runs


def main():
    print("mean absorption time from (0 infected leaves, infected center)")
    print(f"{'n':>4} {'lam':>5} {'exact':>10} {'simulated':>10} {'std err':>9}")
    for n in (3, 5, 10):
        for lam in (0.3, 0.5, 1.0):
            exact = star_mean_absorption(n, lam).expected_time[(0, 1)]
            times, _, _ = star_runs(n, lam, StarState(n, 0, 1), 40_000, seed=2)
            se = times.std() / np.sqrt(times.size)
            flag = "" if abs(times.mean() - exact) < 3 * se else "  <-- off!"
            print(f"{n:>4} {lam:>5.1f} {exact:>10.4f} {times.mean():>10.4f} "
                  f"{se:>9.4f}{flag}")
    print()

    n, lam = 200, 0.4
    k = lam * n / (lam + 1)
    print(f"quasi-equilibrium on n={n}, lam={lam}: K = lam*n/(lam+1) = {k:.1f}")
    times, _, leaf_time = star_runs(n, lam, StarState(n, round(k), 1), 3,
                                    seed=5, horizon=100.0)
    for i, avg in enumerate(leaf_time / times):
        print(f"  replica {i}: time-averaged infected leaves over [0,100] "
              f"= {avg:.1f}")
    print("the chain hovers at the drift fixed point lam*(n-K) = K*(1+lam)")


if __name__ == "__main__":
    main()
