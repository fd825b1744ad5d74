"""Stdlib grids for the tests."""


def linspace(start: float, stop: float, num: int) -> list[float]:
    """num evenly spaced floats from start to stop inclusive, bit for bit
    the values of numpy.linspace: i * step + start, and stop last."""
    step = (stop - start) / (num - 1)
    return [i * step + start for i in range(num - 1)] + [float(stop)]
