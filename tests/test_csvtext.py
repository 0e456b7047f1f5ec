"""``hdw.csvtext`` writes the bytes of ``b"%.17g" % v`` for every double."""

import math
import struct
from decimal import Decimal

import numpy as np
import pytest

from hdw.csvtext import WORDS, join_rows, slots


def _reference(rows) -> bytes:
    return b"".join(b",".join(b"%.17g" % v for v in row) + b"\n" for row in rows)


def _text(rows) -> bytes:
    return join_rows(slots(np.array(rows, dtype=np.float64)))


def _is_tie(v: float) -> bool:
    digits = Decimal(v).normalize().as_tuple().digits
    return len(digits) == 18 and digits[-1] == 5


def test_edge_values(csv_edge_values):
    assert sum(map(_is_tie, csv_edge_values)) >= 20  # the ties are there
    assert _text([[v] for v in csv_edge_values]) == _reference([[v] for v in csv_edge_values])
    assert _text([csv_edge_values]) == _reference([csv_edge_values])


def test_non_finite_values_take_the_percent_operator():
    rows = [[math.inf, -math.inf, math.nan, -0.0]]
    assert _text(rows) == b"inf,-inf,nan,-0\n"


@pytest.mark.parametrize("name", ["uniform", "spread", "mantissas", "integers", "bits"])
def test_seeded_sweep(name):
    rng = np.random.default_rng(7)
    size = 50_000
    values = {
        "uniform": lambda: rng.uniform(-1.5, 1.5, size),
        "spread": lambda: 10.0 ** rng.uniform(-14, 18, size) * rng.choice([-1.0, 1.0], size),
        "mantissas": lambda: rng.integers(1, 2 ** 53, size) * 2.0 ** rng.integers(-60, 4, size),
        "integers": lambda: rng.integers(0, 2 ** 20, size) * 10.0 ** rng.integers(0, 12, size),
        "bits": lambda: rng.integers(0, 2 ** 64, size, dtype=np.uint64).view(np.float64),
    }[name]().reshape(-1, 5)
    with np.errstate(all="raise"):  # the kernel itself raises no numpy warning
        text = _text(values)
    assert text == _reference(values.tolist())


def test_slots_keep_the_shape_of_their_values():
    # rows run along the last axis of the values, whatever their rank
    values = np.linspace(-2.0, 2.0, 24).reshape(2, 3, 4)
    assert slots(values).shape == (2, 3, 4, WORDS)
    assert join_rows(slots(values)) == _reference(values.reshape(6, 4).tolist())


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


@pytest.mark.parametrize("draw", ["floats", "bit patterns"])
def test_any_finite_row_matches_the_percent_operator(draw):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    value = {"floats": st.floats(allow_nan=False, allow_infinity=False),
             "bit patterns": st.integers(0, 2 ** 64 - 1).map(_double).filter(math.isfinite)}[draw]

    # a failing draw is reported as drawn: shrinking a row of floats can take minutes
    @hypothesis.settings(max_examples=300, phases=[hypothesis.Phase.generate])
    @hypothesis.given(st.lists(value, min_size=1, max_size=6))
    def check(row):
        assert _text([row]) == _reference([row])

    check()
