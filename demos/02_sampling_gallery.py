#!/usr/bin/env python3
"""The mutation base samplers, decorated and undecorated.

Shows mirrored pairs, QR-orthonormalized groups, and the
quasi-random bases (Sobol, Halton) pushed through the inverse normal
CDF, with moment checks against the standard normal.
"""

import numpy as np

from modcmaes import SamplerSpec, gaussian_transform, quasi_uniform
from modcmaes.sampling import next_batch

np.set_printoptions(precision=3, suppress=True)

# Mirrored sampling: every second vector is the negation of the last.
batch = next_batch(SamplerSpec(base="gaussian", mirrored=True, dimension=2, seed=1), 4)
print("mirrored batch")
print(batch)
print("column sums (exactly zero):", batch.sum(axis=0))

# Orthogonal sampling: a fresh group is orthogonalized, lengths kept.
batch = next_batch(
    SamplerSpec(base="gaussian", orthogonal=True, dimension=4, seed=2), 4
)
gram = batch @ batch.T
print("\northogonalized group, Gram matrix")
print(gram)

# Halton's first coordinate is the van der Corput sequence in base 2.
print("\nhalton prefix, base-2 coordinate:")
print([quasi_uniform("halton", 2, i)[0] for i in range(1, 9)])

# Sobol points stratify dyadic intervals perfectly.
pts = np.array([quasi_uniform("sobol", 1, i)[0] for i in range(8)])
print("\nfirst 8 sobol points in 1-D (one per eighth):")
print(np.sort(pts))

# The inverse normal CDF turns low-discrepancy boxes into bell curves.
print("\nstandard-normal quantiles of (0.025, 0.5, 0.975):")
print(gaussian_transform(np.array([0.025, 0.5, 0.975])))

# Large-sample moments of the quasi-Gaussian streams.
print("\nquasi-Gaussian moments over 4096 draws (target mean 0, var 1):")
for base in ("gaussian", "sobol", "halton"):
    sample = next_batch(SamplerSpec(base=base, dimension=2, seed=42), 4096)
    print(
        f"  {base:9s} mean {sample.mean(axis=0)} var {sample.var(axis=0)}"
    )
