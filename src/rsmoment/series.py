"""Power series arithmetic for q-expansions.

Two multiplication engines:

* ``mul_exact`` -- exact big-integer convolution via Kronecker substitution
  (coefficients packed in fixed-width byte slots, one big multiply, signed
  unpack with an offset trick).  Used for the exact prefix of every
  q-expansion, where cancellation must be tracked exactly.  The big multiply
  has two paths: from 6 kB per operand up to about 840 kB, where Percival's
  worst-case error estimate for 12-bit digits reaches 1/4, a float64 FFT
  convolution of the operands' 12-bit digits, rounded and carried in
  integers, and CPython's ``A * B`` outside that range.  Two guards, every
  FFT output within 1/4 of an integer and an exact check of the product
  modulo 2^61 - 1, send a failed FFT product back to ``A * B``, so every
  product equals ``A * B``.  A square packs its operand once and squares it
  on either path.
* ``mul_float`` -- float64 banded block convolution.  Both operands are cut
  into dyadic blocks; block pairs within 3 octaves of the diagonal are
  convolved by FFT with each block scaled to unit max, and the pairs further
  off the diagonal are merged into one scaled FFT of each block against the
  other operand's prefix: O(log n) FFTs per product.  A square counts each
  unordered block pair once, at weight 2 off the diagonal, and transforms a
  diagonal block once: about half the FFTs.  Its docstring gives the
  measured accuracy, worst at coefficients far smaller than their neighbours.

Both engines convolve through one helper, ``_fft_conv`` (``numpy.fft`` real
transforms at a 5-smooth length).

Also hosts the arithmetic sieves, one per quantity: sigma_k (exact, and as
float64 rounded once per entry), d(n), and Deligne's bound B(m) through the
one sum over square divisors that also builds the Rankin-Selberg b_m
(``square_divisor_sum``); prime divisors; and the standard level-1
generators: eta powers via the pentagonal/Jacobi sparse expansions, Delta,
and every Eisenstein series E_w as one integral multiple D E_w, read off
one exact sigma_{w-1} sieve.

All program state lives in one store, ``_STORE``.  The grow-only entries
(``stored``) are every exact series here and in ``modforms`` but the exact
sigma sieve, and the float sieves of sigma_k, d(n) and B(m): a request is
a slice of the longest build so far, and a request past it rebuilds at 3/2
of the held length or more.  Each of them is the same whatever the build
length, so a slice equals a fresh build; no other float series is stored.
Everything else the checker reuses (eigenforms per weight and length, Hecke
data, omega solves, V quadratures, AFE cutoffs and grids, the E-term's W
rows and nu-tail rows, Kloosterman rows, inverse and residue tables) is
built once per key (``memo``).  ``clear_store`` drops everything, so it is
the one reset of the whole checker.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

__all__ = [
    "mul_exact",
    "mul_float",
    "sigma_sieve",
    "divisor_count_sieve",
    "deligne_bound_sieve",
    "square_divisor_sum",
    "eta3_sparse",
    "eta6_float",
    "delta_exact",
    "prime_divisors",
    "eisenstein_exact",
    "stored",
    "memo",
    "clear_store",
]

_STORE: dict[tuple, object] = {}  # key -> longest build so far, or memo entry


def _read_only(obj):
    for a in obj if isinstance(obj, tuple) else (obj,):
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return obj


def stored(key: tuple, length: int, build):
    """The first ``length`` entries of series ``key``, from one grow-only store.

    ``build(n)`` returns the first n entries.  A request within what the
    store holds is a slice of it; a longer one rebuilds at
    max(length, 3/2 x held), so ascending requests build a series O(log n)
    times.  Arrays are stored read-only and lists come back as copies.
    """
    held = _STORE.get(key)
    if held is None or len(held) < length:
        held = _read_only(build(max(length, 0 if held is None else len(held) * 3 // 2)))
        _STORE[key] = held
    return held[:length]


def memo(key: tuple, build):
    """The object ``build()`` made for ``key``, built once per store.

    An array result, or each array of a tuple result, is stored read-only.
    """
    if key not in _STORE:
        _STORE[key] = _read_only(build())
    return _STORE[key]


def clear_store():
    """Drop every stored series and memo: the one reset of all program state."""
    _STORE.clear()


def mul_exact(a: list[int], b: list[int], n_out: int) -> list[int]:
    """Exact product of integer polynomials, truncated to n_out coefficients.

    Kronecker substitution: each factor is packed into one big integer with a
    fixed-width byte slot per coefficient, the two are multiplied once by
    ``_big_mul`` (CPython's ``A * B``, or from ``_FFT_MIN_BYTES`` per operand
    a float64 FFT product over 12-bit digits, checked exactly), and the
    slots are read back with a sign offset.  The result equals the
    schoolbook product.  A square (``a == b``) packs once and hands
    ``_big_mul`` one integer twice, so CPython or the FFT squares it.
    """
    la, lb = len(a), len(b)
    if la == 0 or lb == 0 or n_out <= 0:
        return [0] * n_out
    square = a == b
    ma = max(max(abs(x) for x in a), 1)
    mb = ma if square else max(max(abs(x) for x in b), 1)
    bound = ma * mb * min(la, lb)
    slot = (bound.bit_length() + 10) // 8 + 1  # bytes; room for sign offset
    nbits = 8 * slot
    half = 1 << (nbits - 1)

    A = _pack_signed(a, slot)
    B = A if square else _pack_signed(b, slot)
    C = _big_mul(A, B)
    # shift every base-2^nbits digit into [0, 2^nbits) so byte slicing works
    n = min(n_out, la + lb - 1)
    nslots = la + lb + 1
    offset = int.from_bytes(half.to_bytes(slot, "little") * nslots, "little")
    C += offset
    raw = memoryview(C.to_bytes(slot * (nslots + 2), "little", signed=False))
    # every coefficient lies in (-half, half), so each offset slot is one
    # base-2^nbits digit and no carry crosses a slot boundary
    out = [
        int.from_bytes(raw[i * slot:(i + 1) * slot], "little") - half
        for i in range(n)
    ]
    return out + [0] * (n_out - n)


_FFT_MIN_BYTES = 6_000  # measured: from here the FFT beats A * B and A * A
_CHECK_PRIME = (1 << 61) - 1  # modulus of the exact check on every FFT product


def _big_mul(A: int, B: int) -> int:
    """A * B: ``_fft_mul``'s product from ``_FFT_MIN_BYTES`` (6 kB) in both
    operands while ``_fft_worst_error`` is below 1/4 (up to about 840 kB
    each), else CPython's, which also stands in where a guard of the FFT
    fails.  ``B is A`` squares on either path."""
    na, nb = A.bit_length(), B.bit_length()
    if min(na, nb) < 8 * _FFT_MIN_BYTES or _fft_worst_error(na, nb) >= 0.25:
        return A * B
    C = _fft_mul(A, B)
    return A * B if C is None else C


def _fft_mul(A: int, B: int) -> int | None:
    """A * B by a float64 FFT over 12-bit digits, or None when a guard fails.

    The 12-bit digits of |A| and |B| are convolved by one real FFT
    (``_fft_conv``) and every output is rounded to the nearest integer;
    ``_carry`` sums them back into |A B|.  Two guards decide whether the
    result is returned:

    * every FFT output lies within 1/4 of its rounded value, and
    * C = (A mod p)(B mod p) mod p for p = 2^61 - 1, an exact O(n) check.

    Rounding needs every output within 1/2 of its integer.  ``_big_mul``
    calls this only while Percival's bound (``_fft_worst_error``) for
    operands of that size, every digit at 4095, is below 1/4.  Percival
    proves the bound for a radix-2 complex FFT; numpy's real transform at a
    5-smooth length also runs radix-3 and radix-5 passes, so here it is an
    estimate, not a proof.  The exact check mod p is what makes every
    returned product equal A * B.  ``B is A`` converts the digits once and
    takes one forward transform.
    """
    x = _digits(A)
    conv = _fft_conv(x, x if B is A else _digits(B))
    digits = np.rint(conv)
    if np.max(np.abs(conv - digits)) > 0.25:
        return None
    C = _carry(digits.astype(np.int64))
    if (A < 0) != (B < 0):
        C = -C
    p = _CHECK_PRIME
    ra = A % p
    if C % p != ra * (ra if B is A else B % p) % p:
        return None
    return C


def _fft_error_bound(norms: float, size: int) -> float:
    """Percival's bound on every output error of a float64 FFT convolution.

    ``norms`` is ||x|| ||y||, the product of the inputs' Euclidean norms, and
    ``size`` the transform length.  Percival (Math. Comp. 72, 2003) bounds
    the error by ||x|| ||y|| ((1+e)^3K (1+e sqrt5)^(3K+1) (1+b)^3K - 1),
    e = 2^-53, b = e / sqrt2, K = log2(size).  It is evaluated as expm1 of a
    sum of log1p terms: in float64 1 + e rounds to 1, so the expression as
    written comes out at about half its value.
    """
    e = 2.0 ** -53
    k = 3 * math.log2(size)
    return norms * math.expm1(k * math.log1p(e) + (k + 1) * math.log1p(e * math.sqrt(5))
                              + k * math.log1p(e / math.sqrt(2)))


def _fft_worst_error(abits: int, bbits: int) -> float:
    """``_fft_error_bound`` for ``_fft_mul`` on operands of abits and bbits
    bits, every 12-bit digit at 4095: 2.3e-2 at 93 kB each, 1/4 at about
    840 kB."""
    na, nb = 2 * -(-abits // 24), 2 * -(-bbits // 24)  # as ``_digits`` pads
    return _fft_error_bound(4095.0 ** 2 * math.sqrt(na * nb), _fast_len(na + nb - 1))


def _digits(A: int) -> np.ndarray:
    """The little-endian base-2^12 digits of |A| as float64, two from every
    three bytes, the last three padded."""
    raw = abs(A).to_bytes((A.bit_length() + 7) // 8, "little")
    t = np.frombuffer(raw + bytes(-len(raw) % 3), dtype=np.uint8)
    t = t.reshape(-1, 3).astype(np.uint16)
    out = np.empty((len(t), 2))
    out[:, 0] = t[:, 0] | (t[:, 1] & 15) << 8
    out[:, 1] = t[:, 1] >> 4 | t[:, 2] << 4
    return out.ravel()


def _carry(c: np.ndarray) -> int:
    """sum_j c[j] 2^(12 j) for nonnegative int64 digits c, below 2^50.

    Every two digits merge into one little-endian field f_i = c[2i] +
    c[2i+1] 2^12 at bit 24 i, below 2^63.  Bytes 0-2, 3-5 and 6-7 of every
    f_i, laid end to end, are three base-2^24 integers F_0, F_1, F_2, and
    the sum is F_0 + F_1 2^24 + F_2 2^48.
    """
    f = c[::2].astype("<i8")  # a copy, its bytes in the order read below
    f[:len(c) // 2] += c[1::2] << 12
    b = f.view(np.uint8).reshape(-1, 8)
    top = np.zeros((len(f), 3), dtype=np.uint8)
    top[:, :2] = b[:, 6:]
    return sum(int.from_bytes(x.tobytes(), "little") << (24 * k)
               for k, x in enumerate((b[:, :3], b[:, 3:6], top)))


def _fast_len(n: int) -> int:
    """The least 2^a 3^b 5^c >= n (n >= 1): a length ``numpy.fft`` transforms
    by radix-2, 3 and 5 passes only."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power of two that lifts p35 to at least n
            cand = p35 << (-(-n // p35) - 1).bit_length()
            if cand < best:
                best = cand
            p35 *= 3
        p5 *= 5
    return best


def _fft_conv(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The full linear convolution of two float64 vectors by one real FFT.

    The transform length is the next 5-smooth size (``_fast_len``).
    ``y is x`` squares: one forward transform, squared.
    """
    n = len(x) + len(y) - 1
    size = _fast_len(n)
    X = np.fft.rfft(x, size)
    X *= X if y is x else np.fft.rfft(y, size)  # in place: no third spectrum
    return np.fft.irfft(X, size)[:n]


def _pack_signed(v: list[int], slot: int) -> int:
    """sum_i v[i] 2^(8 slot i), each entry written once as a signed slot.

    A negative entry's two's-complement slot reads 2^(8 slot) above it, so
    one correction integer, a 1 just past every negative entry's slot, is
    subtracted.
    """
    packed = int.from_bytes(
        b"".join(x.to_bytes(slot, "little", signed=True) for x in v), "little")
    neg = [i for i, x in enumerate(v) if x < 0]
    if not neg:
        return packed
    correction = bytearray(slot * (len(v) + 1))
    for i in neg:
        correction[slot * (i + 1)] = 1
    return packed - int.from_bytes(correction, "little")


def _dyadic_blocks(n: int) -> list[tuple[int, int]]:
    # (0,1) then octaves: keeps the within-block dynamic range of an
    # n^alpha-growing series bounded by 2^alpha, so per-pair scaling works
    blocks = [(0, 1)] if n > 0 else []
    lo, width = 1, 1
    while lo < n:
        hi = min(n, lo + width)
        blocks.append((lo, hi))
        lo, width = hi, width * 2
    return blocks


def _block_start(s: int) -> int:
    return (1 << s) >> 1  # block 0 starts at 0, block s >= 1 at 2^(s-1)


# Block pairs at most this many octaves apart keep their own scaling; the
# pairs further off the diagonal are merged into one prefix FFT per block.
_BAND = 3


def _add_scaled_conv(out: np.ndarray, x: np.ndarray, x0: int, y: np.ndarray, y0: int,
                     weight: float = 1.0):
    """out[x0 + y0 + m] += weight sum_{i+j=m} x[i] y[j], each factor scaled to
    unit max.  ``y is x`` squares the block with one forward transform."""
    base = x0 + y0
    room = len(out) - base
    if room <= 0:
        return
    square = y is x
    x, y = x[:room], y[:room]  # later entries only reach indices past the output
    if len(x) == 0 or len(y) == 0:
        return
    sx, sy = np.max(np.abs(x)), np.max(np.abs(y))
    if sx == 0.0 or sy == 0.0:
        return
    span = min(room, len(x) + len(y) - 1)
    if len(x) == 1:
        out[base:base + span] += (weight * x[0]) * y[:span]
    elif len(y) == 1:
        out[base:base + span] += (weight * y[0]) * x[:span]
    else:
        xs = x / sx
        conv = _fft_conv(xs, xs if square else y / sy)
        out[base:base + span] += conv[:span] * (weight * sx * sy)


def mul_float(a: np.ndarray, b: np.ndarray, n_out: int) -> np.ndarray:
    """Float64 product of two series, truncated to n_out coefficients.

    Both operands are cut into dyadic blocks [2^(s-1), 2^s).  Every block
    pair (s, t) with |s - t| <= 3 is convolved by FFT with each block scaled
    to unit max.  The pairs further from the diagonal are merged: a-block s
    is convolved once with the b prefix below b-block s - 3, scaled by that
    prefix's max, and b-block t once with the a prefix below a-block t - 3.
    Each block pair is counted exactly once, at O(log n) FFTs per product.

    A square (the truncated operands are equal) counts each unordered pair
    once: pair (s, t) with t < s and the one block-against-prefix merge per
    block are added with weight 2, which is exact, and a diagonal pair takes
    one forward transform.  That is about half the FFTs of a product.

    Each FFT's error is relative to its largest terms, so coefficients far
    smaller than their neighbours are the least accurate.  Against
    ``mul_exact`` at n = 2^14, worst (median) per-coefficient relative error:
    Delta*Delta (the square path) 7.8e-11 (9.9e-15), Delta^2*Delta 1.1e-8
    (1.3e-13).  Merging the whole prefix, without the band, loses about
    three digits.
    """
    a = np.asarray(a, dtype=np.float64)[:n_out]
    b = np.asarray(b, dtype=np.float64)[:n_out]
    out = np.zeros(n_out)
    ablocks = _dyadic_blocks(len(a))
    if np.array_equal(a, b):
        for s, (i0, i1) in enumerate(ablocks):
            x = a[i0:i1]
            _add_scaled_conv(out, x, i0, x, i0)
            for t in range(max(0, s - _BAND), s):
                j0, j1 = ablocks[t]
                _add_scaled_conv(out, x, i0, a[j0:j1], j0, 2.0)
            if s > _BAND:
                _add_scaled_conv(out, x, i0, a[:_block_start(s - _BAND)], 0, 2.0)
        return out
    bblocks = _dyadic_blocks(len(b))
    for s, (i0, i1) in enumerate(ablocks):
        for t in range(max(0, s - _BAND), min(len(bblocks), s + _BAND + 1)):
            j0, j1 = bblocks[t]
            _add_scaled_conv(out, a[i0:i1], i0, b[j0:j1], j0)
        if s > _BAND:
            _add_scaled_conv(out, a[i0:i1], i0, b[:_block_start(s - _BAND)], 0)
    for t, (j0, j1) in enumerate(bblocks):
        if t > _BAND:
            _add_scaled_conv(out, a[:_block_start(t - _BAND)], 0, b[j0:j1], j0)
    return out


def sigma_sieve(power: int, length: int) -> np.ndarray:
    """sigma_power(n) for n < length as read-only float64 (index 0 is 0),
    from the store: ``sigma_sieve_exact`` with each entry rounded once."""
    return stored(("sigma", power), length,
                  lambda n: np.array(sigma_sieve_exact(power, n), dtype=float))


def divisor_count_sieve(length: int) -> np.ndarray:
    """d(n) for n < length as read-only float64 (index 0 is 0), from the
    store: each d counts once at d^2 and twice at d j, j > d."""
    def build(n):
        s = np.zeros(n)
        d = 1
        while d * d < n:
            s[d * d] += 1.0
            s[d * (d + 1)::d] += 2.0
            d += 1
        return s
    return stored(("divisor count",), length, build)


def square_divisor_sum(x: np.ndarray, level: int = 1) -> np.ndarray:
    """out[m] = sum_{d^2 | m, gcd(d, level) = 1} x[m/d^2] for 0 < m < len(x),
    out[0] = 0, added in ascending d: the one sum over square divisors behind
    the Rankin-Selberg coefficients b_m and Deligne's bound B(m)."""
    n = len(x)
    out = np.zeros(n)
    d = 1
    while d * d < n:
        if math.gcd(d, level) == 1:
            sq = d * d
            out[sq::sq] += x[1:(n - 1) // sq + 1]
        d += 1
    return out


def deligne_bound_sieve(length: int) -> np.ndarray:
    """B(m) = sum_{d^2 | m} d(m/d^2)^2 for m < length as read-only float64
    (index 0 is 0), from the store.

    Deligne's |C(n)| <= d(n) for normalized eigenforms makes B(m) a bound on
    every Rankin-Selberg coefficient b_m = sum_{d^2 | m, (d, level) = 1}
    C_f(m/d^2) C_g(m/d^2), at every level.  B(m) <= d(m)^3, because
    d(m/d^2) <= d(m) and the d with d^2 | m are at most d(m) many.  Every
    entry is an integer far below 2^53, so a slice equals a fresh build.
    """
    return stored(("deligne bound",), length,
                  lambda n: square_divisor_sum(divisor_count_sieve(n) ** 2))


def prime_divisors(n: int) -> tuple[int, ...]:
    """The primes dividing n, ascending (none for n < 2), by trial division."""
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def sigma_sieve_exact(power: int, length: int) -> tuple[int, ...]:
    """sigma_power(n) for n < length as exact integers (index 0 is 0); not
    stored, as its callers store its multiple or its rounding."""
    s = [0] * length
    for d in range(1, length):
        dp = d ** power
        for m in range(d, length, d):
            s[m] += dp
    return tuple(s)


def eta3_sparse(length: int) -> list[int]:
    """q-expansion of eta(q)^3 / q^{1/8} = sum (-1)^j (2j+1) q^{j(j+1)/2} (Jacobi)."""
    out = [0] * length
    j = 0
    while j * (j + 1) // 2 < length:
        out[j * (j + 1) // 2] = (-1) ** j * (2 * j + 1)
        j += 1
    return out


def eta6_float(length: int) -> np.ndarray:
    """(eta(q)^3 / q^{1/8})^2 to ``length`` terms, squared term by term from the Jacobi series.

    Every coefficient and partial sum is an integer far below 2^53, so the
    result equals ``mul_exact(eta3_sparse(length), eta3_sparse(length), length)``.
    """
    j = np.arange(math.isqrt(2 * length) + 2)
    pos = j * (j + 1) // 2
    pos, j = pos[pos < length], j[pos < length]
    coef = np.where(j % 2 == 1, -(2.0 * j + 1), 2.0 * j + 1)
    out = np.zeros(length)
    for p, c in zip(pos, coef):
        m = np.searchsorted(pos, length - p)  # terms with p + pos < length
        out[p + pos[:m]] += c * coef[:m]
    return out


def delta_exact(length: int) -> list[int]:
    """tau(n) for n < length: Delta = q * (eta^3)^8 as formal series in q."""
    def build(n):
        e3 = eta3_sparse(n - 1)
        e6 = mul_exact(e3, e3, n - 1)
        e12 = mul_exact(e6, e6, n - 1)
        return [0] + mul_exact(e12, e12, n - 1)
    return stored(("delta",), length, build)


def eisenstein_exact(weight: int, length: int) -> list[int]:
    """D E_w, E_w = 1 - (2w/B_w) sum sigma_{w-1}(n) q^n, for even w >= 4.

    D, the constant term, is the least positive integer that makes every
    coefficient integral: 1 for w in {4, 6, 8, 10, 14}, 691 for w = 12.
    """
    if weight % 2 or weight < 4:
        raise ValueError("Eisenstein series need even weight >= 4")
    p, q = mpmath.bernfrac(weight)
    scale = Fraction(-2 * weight * q, p)  # -2w/B_w; sigma(1) = 1 fixes D

    def build(n):
        return [scale.denominator] + [scale.numerator * x
                                      for x in sigma_sieve_exact(weight - 1, n)[1:]]
    return stored(("eisenstein", weight), length, build)
