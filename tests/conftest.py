"""Shared test configuration.

Hypothesis runs derandomized with a bounded number of examples, so the
property tests are deterministic and quick.
"""

import math

import pytest

try:
    from hypothesis import settings
except ImportError:  # property tests skip themselves without Hypothesis
    pass
else:
    settings.register_profile("hdw", derandomize=True, database=None,
                              max_examples=150, deadline=None)
    settings.load_profile("hdw")


def _csv_edge_values() -> list[float]:
    """Doubles at the edges of the "%.17g" text: signed zeros, subnormals,
    the largest double, every power of ten 1e-6 ... 1e17 with its neighbours
    (1e-4 and 1e17 bound the fixed-point form), numbers of 17 digits, and
    exact ties m·2^-n of 18 significant digits ending in 5, where the
    rounding to 17 goes half to even."""
    values = [0.0, 5e-324, 2.2250738585072014e-308, 1e308, 1.7976931348623157e308,
              9999999999999998.0, 0.5, 0.1, 1 / 3, 10.0, 1e15 + 0.5]
    for j in range(-6, 18):
        power = float(f"1e{j}")
        values += [math.nextafter(power, 0.0), power, math.nextafter(power, math.inf)]
    for n in range(2, 60, 3):  # the least and the greatest odd m < 2^53 with
        # 10^17 <= m·5^n < 10^18, so that m·2^-n has those 18 digits
        least = -(-10 ** 17 // 5 ** n) | 1
        greatest = min((10 ** 18 - 1) // 5 ** n, 2 ** 53 - 1)
        greatest -= 1 - greatest % 2
        values += [m / 2 ** n for m in sorted({least, greatest}) if least <= greatest]
    return values + [-v for v in values]


@pytest.fixture
def csv_edge_values() -> list[float]:
    return _csv_edge_values()
