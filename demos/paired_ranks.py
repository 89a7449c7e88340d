"""Paired signed-rank comparison of two optimizers on shared seeds.

Both algorithms attack the same functions from the same starting seeds, and
each run stops at its first iteration within tolerance of the minimum. The
seeds both algorithms solve pair up on iterations to success, the paper's
yardstick. Fewer is better; a winner is declared only when the test is
significant.

Run with: python3 demos/paired_ranks.py
"""

from evoclust.benchmarks import get_function
from evoclust.optimizers import OptimizerConfig, run_repetitions
from evoclust.stats import wilcoxon_signed_rank

FUNCTIONS = ["F14", "F9", "F3"]


def main():
    cfg = OptimizerConfig(population_size=30, max_iterations=300, runs=12)
    for fid in FUNCTIONS:
        fn = get_function(fid)
        bsa = run_repetitions("bsa", fn, cfg, base_seed=42, dim=2)
        pso = run_repetitions("pso", fn, cfg, base_seed=42, dim=2)
        pairs = [(a.iterations_to_success, b.iterations_to_success)
                 for a, b in zip(bsa, pso) if a.succeeded and b.succeeded]
        if not pairs:
            print(f"{fn.name:<12} no seed solved by both")
            continue
        w = wilcoxon_signed_rank(*zip(*pairs))
        tag = {"A": "bsa", "B": "pso"}.get(w.winner, "tie")
        kind = "exact" if w.exact else "approx"
        print(f"{fn.name:<12} pairs={len(pairs):<3} R+={w.r_plus:<6g} R-={w.r_minus:<6g} "
              f"p={w.p_value:.4f} ({kind}, n'={w.n_nonzero})  winner: {tag}")


if __name__ == "__main__":
    main()
