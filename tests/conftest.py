"""Tier-1 settings: one BLAS thread unless the environment says otherwise,
set before anything imports numpy, so that timed tests do not compete for
the cores with BLAS threads of their own and bitwise comparisons run at one
thread count."""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
