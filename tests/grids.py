"""Stdlib grids for the tests."""

import math
from fractions import Fraction


def linspace(start: float, stop: float, num: int) -> list[float]:
    """num evenly spaced floats from start to stop inclusive, bit for bit
    the values of numpy.linspace: i * step + start, and stop last."""
    step = (stop - start) / (num - 1)
    return [i * step + start for i in range(num - 1)] + [float(stop)]


def rounding_interval(x: float) -> tuple[Fraction, Fraction]:
    """The exact midpoints between x and its float neighbours: every real
    strictly between them rounds to x."""
    return tuple(
        (Fraction(x) + Fraction(math.nextafter(x, side))) / 2 for side in (-math.inf, math.inf)
    )
