"""How the irradiance-conditioned sampler imputes missing power.

The sampler keeps every observed (irradiance, power) pair from the training
series. To fill a gap it looks up the k pairs closest in irradiance and either
averages their powers (deterministic mode) or draws one uniformly (stochastic
mode). This script shows the neighbourhood, the two modes, the leave-one-out
choice of k, and how draws approach the generator's true conditional law as
the record grows.

Run:  python3 demos/02_conditional_sampler.py
"""

import math

import numpy as np

from pvmi import SynthSpec, generate
from pvmi.imputation import fit_sampler, neighbors
from pvmi.intervals import normal_cdf
from pvmi.series import HourlySeries


def ks_distance(draws, cdf):
    draws = np.sort(draws)
    n = draws.size
    stat = 0.0
    for i, x in enumerate(draws, start=1):
        f = cdf(float(x))
        stat = max(stat, i / n - f, f - (i - 1) / n)
    return stat


def main():
    spec = SynthSpec(days=365, seed=42)
    series = generate(spec)
    rng = np.random.default_rng(0)

    sampler = fit_sampler(series)  # k chosen by leave-one-out error
    print(f"fitted on {sampler.n_pairs} observed pairs, leave-one-out k = {sampler.k}")

    queries = [0.15, 0.3, 0.6]
    for irr, idx in zip(queries, neighbors(sampler, queries)):
        support = sampler.power[idx]
        draws = support[rng.integers(0, sampler.k, size=5)]
        print(f"\nirradiance {irr:.2f}:")
        print(f"  neighbour powers  {np.round(np.sort(support), 3)[:6]} ...")
        print(f"  deterministic fill {support.mean():.3f}")
        print(f"  stochastic draws   {np.round(draws, 3)}")

    print("\nconvergence to the true conditional distribution at irradiance 0.3:")
    query = 0.3
    mean = spec.efficiency * query

    def true_cdf(x):
        return 0.0 if x < 0 else normal_cdf((x / mean - 1.0) / spec.noise_scale)

    for n in (200, 800, 3200):
        sub = HourlySeries(series.start, series.power[:n].copy(),
                           series.irradiance[:n].copy())
        s = fit_sampler(sub, k=math.ceil(math.sqrt(n)))
        local = np.random.default_rng(1234 + n)
        support = s.power[neighbors(s, [query])[0]]
        draws = support[local.integers(0, s.k, size=1000)]
        print(f"  n={n:5d} k={s.k:3d}  KS distance {ks_distance(draws, true_cdf):.4f}")


if __name__ == "__main__":
    main()
