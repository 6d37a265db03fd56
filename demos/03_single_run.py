#!/usr/bin/env python3
"""One evolution strategy, start to finish.

Runs the plain CMA-ES and two variants on benchmark problems under a
fixed-target protocol: stop at error 1e-8 or at the evaluation budget,
whichever comes first.
"""

import numpy as np

from modcmaes import make_problem, run

sphere = make_problem("sphere", 5)
rastrigin = make_problem("rastrigin_separable", 2)

print("plain CMA-ES on the 5-D sphere, budget 5000, eight seeds")
for seed in range(8):
    rec = run("00000000000", sphere, budget=5000, seed=seed)
    status = f"hit target at {rec.hit_index}" if rec.success else "missed"
    print(f"  seed {seed}: {status}, best error {rec.best_error:.2e}")

# A multimodal problem: restarts make the difference.
print("\n2-D separable Rastrigin, budget 6000")
for config, label in [
    ("00000000000", "no restarts"),
    ("00000000001", "doubling-population restarts"),
    ("00000000002", "large/small alternating restarts"),
]:
    wins = sum(
        run(config, rastrigin, budget=6000, seed=s).success for s in range(10)
    )
    print(f"  {config} ({label:32s}): {wins}/10 runs reach 1e-8")

# The best-so-far error curve is non-increasing by construction.
rec = run("00000000001", rastrigin, budget=6000, seed=3, record=True)
marks = np.unique(np.geomspace(1, rec.evaluations_used, 12).astype(int)) - 1
print("\nbest-so-far error along one run:")
for i in marks:
    print(f"  evaluation {i + 1:5d}: {rec.trajectory[i]:.3e}")
