#!/usr/bin/env python3
"""Name the numeric profile that the pinned digests depend on.

Three layers of a numpy install move the last bits of the engine's
results: the numpy version, whose gufunc loops (``vecdot``, ``matvec``,
the LAPACK ``eigh`` and QR wrappers) compute the row products and
factorizations, the OpenBLAS core that numpy's bundled OpenBLAS picks
when it loads, and whether numpy's own X86_V4 (AVX-512) SIMD dispatch
is on.
The golden digests in ``tests/`` and the whole-space digests in
``scripts/check_space.py`` were pinned under :data:`PINNED`; a
mismatch under another profile may be the profile, not the engine.

Print the profile of this install::

    python3 scripts/numeric_profile.py
"""

from __future__ import annotations

import ctypes
import glob
import os

PINNED = "numpy 2.4.6, OpenBLAS core SkylakeX, numpy X86_V4 dispatch on"


def numeric_profile() -> str:
    """The numpy version, its OpenBLAS core and its X86_V4 dispatch state
    in this process; the core reads ``unknown`` where numpy bundles no
    OpenBLAS that names it."""
    import numpy
    from numpy._core._multiarray_umath import __cpu_features__

    libs = glob.glob(
        os.path.dirname(numpy.__file__) + ".libs/libscipy_openblas*")
    try:
        corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        core = corename().decode()
    except (IndexError, OSError, AttributeError):
        core = "unknown"
    v4 = "on" if __cpu_features__.get("X86_V4") else "off"
    return (f"numpy {numpy.__version__}, OpenBLAS core {core}, "
            f"numpy X86_V4 dispatch {v4}")


def profile_note() -> str:
    """The pinned profile and this run's, for a digest mismatch."""
    return f"digests pinned under {PINNED}; this run: {numeric_profile()}"


if __name__ == "__main__":
    print(f"numeric profile: {numeric_profile()}")
