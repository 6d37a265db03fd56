"""Golden digests of the ES engine: a refactor must not change one bit.

Each case is one seeded run of a structure on a problem. The digest of
a problem is a sha256 over, per run in case order, the run's results
cache line, its best-so-far trajectory as raw float64 bytes and its
per-generation best values as float hex. The structures are a fixed
seeded sample that uses every option of every module, plus four named
ones: plain CMA-ES, orthogonal sampling only, everything on, and
Halton sampling with BIPOP restarts.

The pinned values pin the numpy/OpenBLAS build they were computed
with (numpy 2.4.6 and its bundled OpenBLAS, x86-64). Another numpy or
BLAS build may round a matrix product differently and change the
digests with no change to the engine; there, recompute them with
``golden_digests()`` at a trusted commit before reading a mismatch as
an engine change.
"""

from __future__ import annotations

import hashlib

import numpy as np

from modcmaes.benchmarks import make_problem
from modcmaes.configuration import CATALOG
from modcmaes.core import ENGINE_VERSION, run
from modcmaes.evaluation import ResultsCache

NAMED = ("00000000000", "00010000000", "11111111122", "00000000021")

# (function_id, dimension, budget per dimension)
PROBLEMS = (
    ("sphere", 2, 400),
    ("rastrigin_rotated", 5, 200),
    ("gallagher", 3, 300),
    ("ellipsoid_rotated", 10, 200),
)

# The engine version the digests were computed under: a change that
# moves them bumps ENGINE_VERSION and re-pins both.
GOLDEN_ENGINE_VERSION = 2
GOLDEN = {
    "sphere-2": "2783e01a892e3d31d03cf3c358dbb2eea0596b88a5f265dfe2f82dd28c101cf4",
    "rastrigin_rotated-5": "3ff1d148a3158cb4b424fdc4e062e412c5066955bca24b35599721bb5b4b9b59",
    "gallagher-3": "4aa8d041325e976f236931da6e0b78ac6a1b33fce853f399613224f7a18270eb",
    "ellipsoid_rotated-10": "ca04227f6afad75fe8473ecdb0e1b9a584972211ab546074c641f0b048734370",
}


def sampled_structures(count: int = 36, seed: int = 20261018) -> list[str]:
    rng = np.random.default_rng(seed)
    return [
        "".join(str(int(rng.integers(c))) for c in CATALOG.option_counts)
        for _ in range(count)
    ]


def cases() -> list[tuple[str, int, int]]:
    """(structure, problem index, run seed); the problems take turns."""
    structures = list(NAMED) + sampled_structures()
    return [(s, i % len(PROBLEMS), 1000 + i) for i, s in enumerate(structures)]


def golden_digests() -> dict[str, str]:
    problems = [make_problem(fid, dim) for fid, dim, _ in PROBLEMS]
    hashes = {f"{fid}-{dim}": hashlib.sha256() for fid, dim, _ in PROBLEMS}
    for structure, k, seed in cases():
        fid, dim, per_dim = PROBLEMS[k]
        rec = run(
            structure,
            problems[k],
            budget=per_dim * dim,
            seed=seed,
            record_trajectory=True,
            record_generations=True,
        )
        h = hashes[f"{fid}-{dim}"]
        h.update(ResultsCache.format_record(rec).encode())
        h.update(rec.trajectory.tobytes())
        h.update(" ".join(float(v).hex() for v in rec.generation_best_f).encode())
    return {key: h.hexdigest() for key, h in hashes.items()}


def test_sample_uses_every_option_of_every_module():
    structures = [s for s, _, _ in cases()]
    for position, count in enumerate(CATALOG.option_counts):
        assert {s[position] for s in structures} == {str(v) for v in range(count)}


def test_engine_digests_unchanged():
    assert ENGINE_VERSION == GOLDEN_ENGINE_VERSION
    assert golden_digests() == GOLDEN
