"""Print the versions the goldens depend on.

The log goldens come from numpy's PCG64 draws and float64 sin/cos, and
the WAV goldens from libm's float64 sin and numpy's float64 tanh, whose
bits change with numpy's SIMD dispatch level.  So this prints numpy's
version, the libc, numpy's compiled CPU baseline and the dispatch targets
this CPU has; and hypothesis's version when it is installed, since it
sets which examples the property tests run.

    python .github/print_versions.py
    python .github/print_versions.py --dispatch-targets

The second form prints only the dispatch targets this CPU has, space
separated: as NPY_DISABLE_CPU_FEATURES, they leave numpy at its compiled
baseline.  A baseline feature named there fails numpy's import, so the
value is built from what numpy reports, not written out.
"""

import platform
import sys

import numpy

try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as umath

try:
    import hypothesis
except ImportError:
    hypothesis = None

targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
if sys.argv[1:] == ["--dispatch-targets"]:
    print(*targets)
    sys.exit()

fields = ["numpy", numpy.__version__]
if hypothesis is not None:
    fields += ["hypothesis", hypothesis.__version__]
print(*fields, "libc", platform.libc_ver())
print("cpu baseline", umath.__cpu_baseline__, "dispatch", targets)
