"""Golden digest of a warm-cache structure search through the CLI.

A small cache is filled with ``bruteforce`` (sphere 2-D, genes 1 to 5
free, 4 runs at budget 200: some structures reach the target and some
do not, so the GA's ordering decides on ERT, on FCE and across the
two). Then ``ga`` searches it with three children a generation, so its
runs find different winners at different generations, and
``report-rank`` and ``report-convergence`` read the result. The sha256
covers the three stdouts and every trace file, so a speed-up of the
search path must not change one byte. It was pinned under the numeric
profile ``numeric_profile.PINNED``, which a mismatch names beside the
profile of the run.
"""

from __future__ import annotations

import hashlib
import os

from numeric_profile import profile_note

from modcmaes.cli import main
from modcmaes.core import ENGINE_VERSION

COMMON = ["--function", "sphere", "--dim", "2", "--runs", "4",
          "--budget", "200", "--seed", "0", "--free", "1,2,3,4,5"]

# The engine version the digest was computed under: a change that moves
# it bumps ENGINE_VERSION and re-pins.
GOLDEN_ENGINE_VERSION = 3
GOLDEN = "9396906028904d9678209fa8520cd83f6797e46dd8a8a838ce399ac693331f7a"


def _stdout(argv, capsys) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


def search_digest(tmp_path, capsys) -> str:
    cache = str(tmp_path / "cache.tsv")
    traces = str(tmp_path / "traces")
    _stdout(["bruteforce", *COMMON, "--cache", cache], capsys)
    h = hashlib.sha256()
    h.update(_stdout(["ga", *COMMON, "--cache", cache, "--out", traces,
                      "--ga-runs", "5", "--ga-budget", "24",
                      "--ga-lambda", "3"], capsys).encode())
    h.update(_stdout(["report-rank", *COMMON, "--cache", cache,
                      "--traces", traces], capsys).encode())
    h.update(_stdout(["report-convergence", "--traces", traces],
                     capsys).encode())
    for name in sorted(os.listdir(traces)):
        with open(os.path.join(traces, name), "rb") as fh:
            h.update(name.encode())
            h.update(fh.read())
    return h.hexdigest()


def test_search_outputs_match_golden(tmp_path, capsys):
    assert ENGINE_VERSION == GOLDEN_ENGINE_VERSION
    assert search_digest(tmp_path, capsys) == GOLDEN, profile_note()
