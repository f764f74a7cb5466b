"""80-digit mpmath references for the bump transform above the lattice switch.

    v1(w) = int_{-1}^{1} exp(-nu / (1 - t^2)) cos(w t) dt

is summed by mpmath.quad over segments of about one period of cos(w t).  Run

    python tests/data/bump_mpmath.py

to rewrite bump_mpmath.json next to this file (about 17 s on one core).
tests/test_synthesis.py::test_contour_matches_mpmath checks the contour and
the lattice against every entry and recomputes one entry through reference().
"""

from __future__ import annotations

import json
import math
import pathlib

import mpmath as mp

POINTS = ((0.4, 900.0), (3.0, 300.0), (10.2, 2000.0))
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
    rows = [{"nu": nu, "w": w, "v1": reference(nu, w)} for nu, w in POINTS]
    TABLE.write_text(json.dumps(rows, indent=1) + "\n")


if __name__ == "__main__":
    main()
