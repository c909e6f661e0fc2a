"""Settings for the whole test session.

The tests make many small matrix products.  With its default thread
count, OpenBLAS slows such products by 10-400x when another process
competes for the cores, so the session runs BLAS on one thread unless
the environment already chooses.  OpenBLAS reads these variables once,
when NumPy is first imported; pytest loads this file before any test
module, which is early enough.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
