"""CPython's ``repr`` of many floats at once.

``repr_lines(x)`` returns ``("\\n".join(map(repr, x.tolist())) + "\\n").encode()``
for a nonempty 1-D array ``x`` of finite float64 values: for each value the
shortest decimal that reads back as the same double (the closest such
decimal, ties to an even last digit), laid out as ``repr`` lays it out.  It
works on blocks of ``_BLOCK`` values, in three array stages:

1. Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020)
   finds each value's decimal ``f * 10**k``.  The 128-bit products of its
   126-bit power of ten by the scaled significand are built from 32-bit
   limbs in uint64 arithmetic, once per value; the rounding interval's two
   bounds are that product minus and plus a shifted power of ten.
2. The decimal's 17 digit places come four at a time from a 10 000-entry
   character table.
3. One gather through a per-(sign, point or exponent width, digit count)
   template table lays out each line (``-``, fixed notation for
   ``1e-4 <= |x| < 1e16``, else ``e+XX``/``e-XXX``, and ``.0``), and one
   compress drops each template's unused tail.

Every finite double is in the kernel's domain, zeros of either sign and
subnormals among them; no value falls back to ``repr``.  Every uint64
operand is a ``np.uint64`` or a uint64 array, so that NumPy before NEP 50
never promotes a mix of uint64 and int64 to float64.
"""

from functools import cache

import numpy as np

__all__ = ["repr_lines"]

# values per block: a block's largest temporaries, the (block, 25) gather
# index and line array, stay under half a MB
_BLOCK = 2048
_K_MIN, _K_MAX = -324, 292  # decimal exponents Schubfach scales by

_U = np.uint64
_1, _2, _10, _32, _52, _63, _64 = map(_U, (1, 2, 10, 32, 52, 63, 64))
_M32 = _U(0xFFFF_FFFF)
_M52 = _U((1 << 52) - 1)
_M63 = _U((1 << 63) - 1)
_HIDDEN = _U(1 << 52)
_ONE = _U(0x3FF << 52)
_P10 = np.array([10 ** i for i in range(18)], dtype=np.uint64)

# Columns of a block's (values, 32) byte source: the digit places 2..17 as
# four 4-byte words, then digit place 1, the constant characters, the
# exponent's sign and three digits as one word, "e" and the line end.
_DIGITS = (16, *range(16))
_MINUS, _POINT, _ZERO = 17, 18, 19
_EXP = 20
_E, _LF = 24, 25
_SOURCE = np.zeros(32, dtype=np.uint8)
_SOURCE[[_MINUS, _POINT, _ZERO, _E, _LF]] = list(b"-.0e\n")
_WIDTH = 25  # the longest line: "-d.dddddddddddddddde-308\n"
_MODES = 22  # decimal point at -3..16 (fixed notation), 2- or 3-digit exponent
_DECPT = 323  # offset of the per-decimal-point tables: points run -323..309


def _layout(mode: int, n: int) -> list:
    """Source columns of a positive value's line, without its line end: ``n``
    significant digits, decimal point ``mode - 3`` places after the first
    digit for a fixed-notation mode, else an exponent of ``mode - 18``
    digits."""
    digits = list(_DIGITS[:n])
    if mode >= 20:
        mantissa = digits[:1] + ([_POINT] + digits[1:] if n > 1 else [])
        return mantissa + [_E, _EXP] + list(range(_EXP + 4 - (mode - 18), _EXP + 4))
    point = mode - 3
    if point <= 0:
        return [_ZERO, _POINT] + [_ZERO] * -point + digits
    if point < n:
        return digits[:point] + [_POINT] + digits[point:]
    return digits + [_ZERO] * (point - n) + [_POINT, _ZERO]


@cache
def _tables():
    """Schubfach's powers of ten, with their 32-bit limbs, and the character,
    digit-count and layout tables; built on first use."""
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        # 10**-k = beta * 2**r with 2**125 <= beta < 2**126; g = floor(beta) + 1
        r = _flog2pow10(-k) - 125
        if k <= 0:
            beta = 10 ** -k << -r if r < 0 else 10 ** -k >> r
        else:
            beta = (1 << -r) // 10 ** k
        g.append(beta + 1)
    g1 = np.array([x >> 63 for x in g], dtype=np.uint64)
    g0 = np.array([x & ((1 << 63) - 1) for x in g], dtype=np.uint64)
    powers = np.stack([g1, g1 >> _32, g1 & _M32, g0, g0 >> _32, g0 & _M32])

    i = np.arange(10_000)
    quad = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1)
    # digit places through a 4-digit group's last nonzero digit, for the
    # group at each of the four places 2..5, ..., 14..17 (0 for 0000)
    last = np.max((quad != 0) * np.arange(1, 5), axis=1)
    last = np.where(last > 0, last + np.arange(1, 17, 4)[:, None], 0).astype(np.uint8)
    quad = (quad + ord("0")).astype(np.uint8).view(np.uint32)[:, 0]

    point = np.arange(-_DECPT, 310)
    a = np.abs(point - 1)
    exps = np.stack([np.where(point < 1, ord("-"), ord("+")),
                     a // 100 + ord("0"), a // 10 % 10 + ord("0"), a % 10 + ord("0")], axis=1)
    exps = exps.astype(np.uint8).view(np.uint32)[:, 0]  # exponent point - 1
    # template key: sign * _MODES * 17 + mode * 17 + digits - 1
    modes = np.where((point >= -3) & (point <= 16), point + 3, np.where(a < 100, 20, 21))
    keys = modes * 17 - 1

    lines = [[_MINUS] * sign + _layout(mode, n) + [_LF]
             for sign in (0, 1) for mode in range(_MODES) for n in range(1, 18)]
    cols = np.array([line + [0] * (_WIDTH - len(line)) for line in lines], dtype=np.intp)
    used = np.arange(_WIDTH) < np.array([len(line) for line in lines])[:, None]
    return powers, quad, last, exps, keys, cols, used


def _flog2pow10(e):
    """floor(e * log2(10)) for |e| <= 1233 (the right shift floors negative
    products too)."""
    return (e * 913_124_641_741) >> 38


def _mulhi(ah, al, bh, bl):
    """The high 64 bits of the product of ``ah * 2**32 + al`` and
    ``bh * 2**32 + bl``, all four limbs below 2**32."""
    lo = al * bl
    mid1 = al * bh
    mid2 = ah * bl
    carry = (lo >> _32) + (mid1 & _M32) + (mid2 & _M32)
    return ah * bh + (mid1 >> _32) + (mid2 >> _32) + (carry >> _32)


def _offset(product, g, shift, add: bool):
    """The 128-bit ``product`` (high, low) plus or minus ``g * 2**shift``,
    for ``g < 2**63`` and ``1 <= shift <= 63``."""
    high, low = product
    step = g << shift
    if add:
        moved = low + step
        return high + (g >> (_64 - shift)) + (moved < low), moved
    moved = low - step
    return high - (g >> (_64 - shift)) - (moved > low), moved


def _rop(y, x):
    """Schubfach's rounded-to-odd ``g * cp / 2**127`` for ``g = g1 * 2**63 + g0``,
    from the 128-bit products ``y = g1 * cp`` and ``x = g0 * cp`` as
    (high, low) pairs; the bits it drops are those the reference drops."""
    z = (y[1] >> _1) + x[0]
    return (y[0] + (z >> _63)) | ((z & _M63) != 0)


def _decimals(bits):
    """``(f, k)`` with ``f * 10**k`` the shortest, closest decimal of each
    finite positive double whose bit pattern is in ``bits``; ``f < 10**17``."""
    powers, *_ = _tables()
    t = bits & _M52
    be = (bits >> _52).astype(np.int64)
    c = t | (be > 0) * _HIDDEN
    q = np.maximum(be, 1) - 1075  # the value is c * 2**q
    # at a power of two past the smallest normal the gap below is half the gap above
    irregular = (t == 0) & (be > 1)
    k = (q * 661_971_961_083 - irregular.astype(np.int64) * 274_743_187_321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)  # 2..5
    g1, g1h, g1l, g0, g0h, g0l = np.take(powers, k - _K_MIN, axis=1)
    cp = c << (h + _2)
    ch = cp >> _32
    cl = cp & _M32
    y = _mulhi(g1h, g1l, ch, cl), g1 * cp
    x = _mulhi(g0h, g0l, ch, cl), g0 * cp
    vb = _rop(y, x)
    # the interval's bounds: (4c - 2) * 2**h, or (4c - 1) * 2**h where it is
    # irregular, and (4c + 2) * 2**h
    right = h + _1
    left = right - irregular
    vbl = _rop(_offset(y, g1, left, False), _offset(x, g0, left, False))
    vbr = _rop(_offset(y, g1, right, True), _offset(x, g0, right, True))

    odd = c & _1  # the bounds are in the interval iff c is even
    s = vb >> _2
    sp = s // _10 * _10
    up = vbl + odd <= sp << _2  # the multiples of 10**(k+1) around the value
    wp = ((sp + _10) << _2) + odd <= vbr
    u = vbl + odd <= s << _2  # the multiples of 10**k around it
    w = ((s + _1) << _2) + odd <= vbr
    # of s and s + 1, the one inside, or the closer (ties to even) if both are
    mid = (s + s + _1) << _1
    above = w & (~u | (vb > mid) | ((vb == mid) & ((s & _1) == _1)))
    f = np.where(up != wp, sp + wp * _10, s + above)
    return f, k


def repr_lines(x) -> bytes:
    """``repr(v) + "\\n"`` for each value ``v`` of the 1-D array ``x`` of finite
    float64 values, in order, as ASCII bytes."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 1 or not np.isfinite(x).all():
        raise ValueError("x must be a 1-D array of finite numbers")
    return b"".join(_block(x[i:i + _BLOCK]) for i in range(0, x.size, _BLOCK))


def _block(x) -> bytes:
    _, quad, last, exps, keys, cols, used = _tables()
    magnitude = x.view(np.uint64) & _M63
    zero = magnitude == 0
    # a zero goes through as 1.0 and has its digits cleared
    f, k = _decimals(np.where(zero, _ONE, magnitude))
    n = np.searchsorted(_P10, f, side="right")  # digits of f
    point = k + n + _DECPT
    f = f * _P10[17 - n] * ~zero  # 17 digit places

    src = np.empty((x.size, 32), dtype=np.uint8)
    src[:] = _SOURCE
    head = f // _P10[16]
    src[:, _DIGITS[0]] = head.astype(np.uint8) + ord("0")
    rest = f - head * _P10[16]
    high = rest // _P10[8]
    low = rest - high * _P10[8]
    words = src.view(np.uint32)
    words[:, _EXP // 4] = exps[point]
    n = np.ones(x.size, dtype=np.uint8)  # significant digits
    for j, group in enumerate((high // _P10[4], high % _P10[4],
                               low // _P10[4], low % _P10[4])):
        words[:, j] = quad[group]
        np.maximum(n, last[j][group], out=n)
    key = keys[point] + np.signbit(x) * (_MODES * 17) + n

    index = np.take(cols, key, axis=0)
    index += (np.arange(x.size) * 32)[:, None]
    lines = np.take(src.reshape(-1), index)
    return lines[np.take(used, key, axis=0)].tobytes()
