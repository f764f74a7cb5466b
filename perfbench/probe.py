"""Import kdvcrit and the scipy submodules it uses, then print the clock.

The runner starts this script as a fresh process and takes the difference
between its own clock reading before the start and the reading printed here
as one set-up sample (``time.perf_counter`` is system-wide on Linux).
"""

import time

import scipy.interpolate  # noqa: F401  imported lazily by BumpTable

import kdvcrit.cli  # noqa: F401  imports every kdvcrit module

print(repr(time.perf_counter()))
