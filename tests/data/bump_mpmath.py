"""80-digit mpmath references for the bump transform on both sides of the switch.

    v1(w) = int_{-1}^{1} exp(-nu / (1 - t^2)) cos(w t) dt

is summed by mpmath.quad over segments of about one period of cos(w t).  Run

    python tests/data/bump_mpmath.py

to rewrite bump_mpmath.json next to this file (about 45 s on one core).
tests/test_synthesis.py::test_contour_matches_mpmath checks the contour and
the lattice against the ABOVE entries and recomputes one entry through
reference(); test_bump_table_matches_pointwise checks the trapezoid rule
below the switch against the BELOW entries.
"""

from __future__ import annotations

import json
import math
import pathlib

import mpmath as mp

# (nu, w) above the lattice switch
ABOVE = ((0.4, 900.0), (3.0, 300.0), (10.2, 2000.0))
# (T, w) below it, nu = 1.617 / sqrt(T / 2) as synthesis.make_spec sets it; the
# last w of each T sits at or just below its switch (73.03, 77.9, then 80)
BELOW = tuple(
    (T, w)
    for T, top in ((0.01, 73.0), (0.05, 77.0), (0.4, 80.0), (5.0, 80.0), (25.0, 80.0), (50.0, 80.0))
    for w in (1.0, 10.0, 30.0, 50.0, 64.0, top)
)


def bump_nu(T: float) -> float:
    return 1.617 / math.sqrt(T / 2.0)


POINTS = ABOVE + tuple((bump_nu(T), w) for T, w in BELOW)
TABLE = pathlib.Path(__file__).with_name("bump_mpmath.json")
DIGITS = 40  # significant digits written per value


def reference(nu: float, w: float, dps: int = 80) -> str:
    """v1(w) at ``dps`` working digits, as a string of DIGITS significant digits."""
    with mp.workdps(dps):

        def body(t):
            om = 1 - t * t
            if om <= 0:
                return mp.mpf(0)
            return mp.e ** (-nu / om) * mp.cos(w * t)

        nseg = max(16, int(w / math.pi / 2))
        pts = [mp.mpf(j) / nseg for j in range(nseg + 1)]
        total = 2 * sum(mp.quad(body, [a, b], maxdegree=8) for a, b in zip(pts[:-1], pts[1:]))
        return mp.nstr(total, DIGITS, min_fixed=0, max_fixed=0)


def main() -> None:
    rows = [{"nu": nu, "w": w, "v1": reference(nu, w)} for nu, w in ABOVE]
    rows += [{"T": T, "nu": bump_nu(T), "w": w, "v1": reference(bump_nu(T), w)} for T, w in BELOW]
    TABLE.write_text(json.dumps(rows, indent=1) + "\n")


if __name__ == "__main__":
    main()
