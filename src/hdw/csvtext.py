"""The text of ``trajectory.csv``: float64 arrays to the bytes of ``"%.17g"``.

``"%.17g" % v`` writes v with 17 significant digits, correctly rounded (ties
to even), drops the trailing zeros of the fraction and then a trailing
``.``, and uses exponent form below 1e-4 and from 1e17.  :func:`slots`
computes that text with numpy for every value with 1e-4 <= |v| < 1e16 and
for ±0, and takes ``b"%.17g" % v`` itself for every other value, so the
bytes are those of the ``%`` operator for every double.

The digits come from exact arithmetic.  With k = floor(log10 |v|), the
product |v|·10^(16-k) is formed exactly as hi + lo (Dekker's product,
10^0 ... 10^22 being exact doubles), k is corrected until
1e16 <= hi + lo < 1e17, and D = hi + rint(lo) is the 17-digit integer: hi
is an even integer there, so ``rint``'s ties to even round the exact value
half to even.  D never rounds up to 10^17: in this range the largest double
below a power of ten lies more than 8e-17 of it below, and the rounding
moves by at most 5e-18 of it.

Each value's text lies in a slot of four little-endian 64-bit words, padded
with NUL bytes, which :func:`join_rows` drops:

- word 0: the sign and, for |v| < 1, ``0.`` and its zeros (bytes 0-5), the
  first digit (byte 6) and the ``.`` after it (byte 7) when k = 0;
- words 1 and 2: digits 1-8 and 9-16, the trailing zeros of the fraction
  cut to NUL; a ``.`` after digit k >= 1 is inserted into its word, and
  the digits after it move on by one byte, the last into byte 0 of word 3;
- word 3: byte 1 holds the separator ``,``.
"""

from __future__ import annotations

import numpy as np

WORDS = 4  # 64-bit words per slot; the longest "%.17g" text has 24 bytes
_SLOW_BYTES = 24  # bytes of a slot the "%" path may fill, ahead of word 3's separator

_WORD = np.dtype("<u8")
_COMMA = np.uint64(ord(",") << 8)
_TO_NEWLINE = np.uint64((ord(",") ^ ord("\n")) << 8)
_BYTE, _TOP = np.uint64(8), np.uint64(56)


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: a = hi + lo exactly, each with at most 26 significant bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _word(text: bytes) -> int:
    """The little-endian word of up to 8 bytes, NUL-padded."""
    return int.from_bytes(text.ljust(8, b"\0"), "little")


def _low_bytes(n: int) -> int:
    """The mask of the low n bytes of a word (0 <= n <= 8)."""
    return (1 << 8 * n) - 1


_POW10 = np.array([10 ** j for j in range(23)], dtype=np.float64)  # exact doubles
_POW10_HI, _POW10_LO = _halves(_POW10)


def _group_tables() -> tuple[np.ndarray, list[np.ndarray]]:
    """By 4-digit group g = 0 ... 9999: its four ASCII digits as one word,
    the first in the lowest byte; and, for i = 0 ... 3, the place among
    digits 1 ... 16 of its last nonzero digit when it is the (i+1)-th group,
    0 when g = 0."""
    g = np.arange(10000)
    quad = np.zeros(10000, dtype=np.int64)
    place = np.zeros(10000, dtype=np.int64)
    for j, unit in enumerate((1000, 100, 10, 1)):
        digit = g // unit % 10
        quad += (digit + ord("0")) << 8 * j
        place = np.where(digit > 0, j + 1, place)
    return quad.astype(np.uint64), [np.where(place > 0, place + 4 * i, 0).astype(np.int8)
                                    for i in range(4)]


_QUAD, _LAST = _group_tables()

# by the number of digits kept after the first (0 ... 16): masks of words 1, 2
_KEEP_1 = np.array([_low_bytes(min(n, 8)) for n in range(17)], dtype=np.uint64)
_KEEP_2 = np.array([_low_bytes(max(n - 8, 0)) for n in range(17)], dtype=np.uint64)


def _dot_tables() -> tuple[np.ndarray, ...]:
    """By k + 4 for k = -4 ... 15, when a fraction follows digit k: the bytes
    of words 1 and 2 that stay in place and the '.' put into each.  Nothing
    moves for k <= 0, whose '.' is in word 0."""
    stay = np.full((2, 20), _low_bytes(8), dtype=np.uint64)
    dot = np.zeros((2, 20), dtype=np.uint64)
    for k in range(1, 16):
        word, byte = divmod(k, 8)  # the '.' is that byte of word 1 + word
        stay[word, k + 4] = _low_bytes(byte)
        dot[word, k + 4] = ord(".") << 8 * byte
        if word == 0:
            stay[1, k + 4] = 0  # all of word 2 moves on by one byte
    return stay[0], stay[1], dot[0], dot[1]


def _head_table() -> np.ndarray:
    """Word 0, flat by (sign, fraction after the first digit, k + 4, first digit)."""
    head = np.zeros((2, 2, 20, 10), dtype=np.uint64)
    for k in range(-4, 16):
        for sign in (0, 1):
            head[sign, :, k + 4] = _word(b"-" * sign + (b"0." + b"0" * (-k - 1)) * (k < 0))
    head |= np.arange(ord("0"), ord("9") + 1, dtype=np.uint64) << np.uint64(48)
    head[:, 1, 4] |= np.uint64(ord(".") << 56)
    return head.ravel()


_STAY_1, _STAY_2, _DOT_1, _DOT_2 = _dot_tables()
_HEAD = _head_table()


def _scaled(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For 1e-4 <= a < 1e16 with exponent k: the integer D of a's 17
    significant digits, 10^16 <= D < 10^17, and k + 4."""
    # e = 16 - k puts a·10^e in [10^16, 10^17); log10 may be off by an ulp
    e = 16 - np.floor(np.log10(a)).astype(np.int64)
    a_hi, a_lo = _halves(a)
    while True:
        hi = a * _POW10[e]
        p_hi, p_lo = _POW10_HI[e], _POW10_LO[e]
        lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
        below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
        above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
        if not (below | above).any():
            break
        e += below
        e -= above
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64), 20 - e


def _digit_words(digits: np.ndarray, k: np.ndarray):
    """The first digit of each D, words 1 and 2 before a '.' is put in (digits
    1-8 and 9-16, trailing zeros of the fraction cut), and whether a
    fraction follows digit k."""
    upper, lower = np.divmod(digits, 10 ** 8)
    first, upper = np.divmod(upper, 10 ** 8)
    g1, g2 = np.divmod(upper, 10 ** 4)
    g3, g4 = np.divmod(lower, 10 ** 4)
    last = np.maximum(np.maximum(_LAST[0][g1], _LAST[1][g2]),
                      np.maximum(_LAST[2][g3], _LAST[3][g4]))
    keep = np.maximum(last, k)  # digits 1 ... keep are written
    w1 = _QUAD[g1] | _QUAD[g2] << np.uint64(32)
    w1 &= _KEEP_1[keep]
    w2 = _QUAD[g3] | _QUAD[g4] << np.uint64(32)
    w2 &= _KEEP_2[keep]
    return first, w1, w2, last > k


def slots(values: np.ndarray) -> np.ndarray:
    """The slots of a float64 array: ``values.shape + (WORDS,)`` words, each
    slot the ``"%.17g"`` text of its value followed by ``,``."""
    x = np.asarray(values, dtype=np.float64).ravel()
    a = np.abs(x)
    other = ~((a >= 1e-4) & (a < 1e16))  # and nan
    a[other] = 1.0
    digits, k4 = _scaled(a)
    digits[other] = 0  # written as 0: right for ±0, overwritten below otherwise
    k4[other] = 4
    first, w1, w2, fraction = _digit_words(digits, k4 - 4)
    out = np.empty((x.size, WORDS), dtype=_WORD)
    out[:, 0] = _HEAD[((np.signbit(x) * 2 + fraction) * 20 + k4) * 10 + first]
    dot = k4 * fraction
    stay, move = _STAY_1[dot], w1 & ~_STAY_1[dot]
    out[:, 1] = (w1 & stay) | (move << _BYTE) | _DOT_1[dot]
    carried = move >> _TOP
    stay, move = _STAY_2[dot], w2 & ~_STAY_2[dot]
    out[:, 2] = (w2 & stay) | (move << _BYTE) | _DOT_2[dot] | carried
    out[:, 3] = (move >> _TOP) | _COMMA
    slow = np.flatnonzero(other & (x != 0))
    if slow.size:
        text = np.array([b"%.17g" % v for v in x[slow].tolist()], dtype=f"S{_SLOW_BYTES}")
        out.view(np.uint8)[slow, :_SLOW_BYTES] = text.view(np.uint8).reshape(-1, _SLOW_BYTES)
    return out.reshape(np.shape(values) + (WORDS,))


def join_rows(rows: np.ndarray) -> bytes:
    """The text of an array of slots whose last axis but one runs along a
    CSV row: the last slot of each row ends it with a newline instead of
    ``,``.  ``rows`` is changed in place."""
    rows[..., -1, WORDS - 1] ^= _TO_NEWLINE
    return rows.tobytes().translate(None, b"\0")
