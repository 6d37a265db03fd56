"""Golden digests of the ES engine: a refactor must not change one bit.

Each case is one seeded run of a structure on a problem. The digest of
a problem is a sha256 over, per run in case order, the run's results
cache line, its best-so-far trajectory as raw float64 bytes and its
per-generation best values as float hex. The structures are a fixed
seeded sample that uses every option of every module, plus four named
ones: plain CMA-ES, orthogonal sampling only, everything on, and
Halton sampling with BIPOP restarts.

The pinned values pin the numpy/OpenBLAS build they were computed
with (numpy 2.4.6 and its bundled OpenBLAS, x86-64) and its numeric
profile, ``numeric_profile.PINNED``, which a mismatch names beside the
profile of the run. Another numpy or BLAS build, or another OpenBLAS
core or numpy SIMD dispatch, may round a matrix product differently and
change the digests with no change to the engine; there, recompute them
with ``golden_digests()`` at a trusted commit before reading a mismatch
as an engine change.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numeric_profile import profile_note

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
GOLDEN_ENGINE_VERSION = 3
GOLDEN = {
    "sphere-2": "3f163611db2b98f4cf7928a5acfdca512e83b0c724a454144a3c5d40e7c2303b",
    "rastrigin_rotated-5": "778763cd75ede6acbffacf012cb622f6a0026b9369a99c18d57325e1d35eb99c",
    "gallagher-3": "8934e407aef4b8e3c66104b4706af9693d77da004c422e51c6b53112f0d5de36",
    "ellipsoid_rotated-10": "c225cfbbb35bd069716199787c01415446c872b3174384def5d38be3f8215745",
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
    assert golden_digests() == GOLDEN, profile_note()
