"""kdvcrit: desk-scale numerics for KdV boundary control at critical lengths.

The modules map one-to-one onto the analytic layers: integer enumeration of
critical lengths (`numbertheory`), characteristic roots and entire quotients
(`spectral`), the unreachable directions and their constants (`unreachable`),
the quadratic-interaction kernel and its expansions (`kernel`), the
discretized control system (`pde`), and the bump-based control synthesis
(`synthesis`).  The public functions, in each module's `__all__`, are those
that the `cli` subcommands or the benchmark (perfbench/workloads.py) call,
plus three marked there as waiting on a caller; every other function is
internal.  Public entry points reject bad input with an
`errors.KdvCritError` subclass.
"""

from . import errors

__version__ = "0.1.0"

__all__ = ["errors", "__version__"]
