"""Test session set-up, read by pytest before any test module imports numpy.

One BLAS thread unless the environment sets another count: under the default
OpenBLAS pool, dense ``eigh`` stalls when another process shares the cores.
The count is read when numpy loads, so it is fixed here.
"""
import os
import sys
import warnings

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
if "numpy" in sys.modules:
    warnings.warn("numpy was loaded before conftest.py: its BLAS thread count is already set")
