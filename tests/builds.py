"""The build a test's bits depend on: the one the golden bytes were recorded
on, and the one this process runs. A golden test, or a test that two NumPy
or BLAS paths agree bit for bit, names both when it fails, since another
build may round differently without any change to the code."""

import ast
import contextlib
import io
import os
import re

import numpy as np

# the build the golden bytes and hashes were recorded on, and on which every
# bit-for-bit path comparison passes, as `np.show_config()` and
# `np.show_runtime()` report it
GOLDEN_BUILD = ("NumPy 2.4.6, SIMD baseline X86_V2 with dispatch up to AVX512_SPR, on a CPU "
                "with AVX-512; scipy-openblas 0.3.31 built with DYNAMIC_ARCH, which picks its "
                "kernels for the CPU at run time")


def running_build() -> str:
    """The build this process runs: NumPy's version, the SIMD targets
    `np.show_runtime()` reports, the BLAS `np.show_config()` names, and the
    environment variables that choose NumPy's loops or OpenBLAS's kernels,
    where set."""
    runtime = io.StringIO()
    with contextlib.redirect_stdout(runtime):
        np.show_runtime()
    simd = {key: " ".join(ast.literal_eval(names)) or "none" for key, names in re.findall(
        r"'(baseline|found|not_found)': (\[.*?\])", runtime.getvalue(), re.S)}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas_config = " ".join(blas.get("openblas configuration", "").split())
    build = (f"NumPy {np.__version__}, SIMD baseline {simd.get('baseline')}, dispatch targets "
             f"found {simd.get('found')}, not found {simd.get('not_found')}; BLAS "
             f"{blas.get('name')} {blas.get('version')} ({blas_config})")
    chosen = [f"{name}={os.environ[name]}" for name in ("OPENBLAS_CORETYPE",
                                                          "NPY_DISABLE_CPU_FEATURES")
              if name in os.environ]
    return build + "".join(f"; {setting}" for setting in chosen)


def golden_mismatch(what: str = "golden bytes differ") -> str:
    """The assertion message of a test whose bits depend on the build: what
    differs, then both builds."""
    return (f"{what}\n  recorded on: {GOLDEN_BUILD}\n"
            f"  running on:  {running_build()}\n"
            "On a build other than the recorded one, run these tests at the previous commit "
            "on the same build to tell a numerics change from a kernel change.")
