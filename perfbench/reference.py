"""Facts the workload checks compare against, computed without rsmoment.

Everything here is plain-integer or exact-rational arithmetic written for
the benchmark: tau(n) from q prod (1 - q^n)^24, divisor counts by trial
division, and number-field Kloosterman sums by brute-force enumeration of
residues with inverses found by a product scan.  The seed only picks which
indices and slot pairs the checks sample; the work measured never depends
on it.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

TAU_CHECK_MAX = 300          # tau(n) known exactly for n <= this
KL_NORM_MAX = 60             # Kloosterman sums checked for every ideal up to this norm


def tau_table(n_max: int) -> list[int]:
    """tau(0..n_max) from Delta = q prod_{n>=1} (1 - q^n)^24, in plain integers."""
    m = n_max  # coefficients q^0..q^(n_max-1) of prod (1 - q^n)
    prod = [1] + [0] * (m - 1)
    for n in range(1, m):
        for i in range(m - 1, n - 1, -1):
            prod[i] -= prod[i - n]

    def mul(a, b):
        out = [0] * m
        for i, x in enumerate(a):
            if x:
                for j in range(m - i):
                    out[i + j] += x * b[j]
        return out

    p2 = mul(prod, prod)
    p4 = mul(p2, p2)
    p8 = mul(p4, p4)
    p16 = mul(p8, p8)
    p24 = mul(p16, p8)
    return [0] + p24[: n_max]


def divisor_count(n: int) -> int:
    count, d = 0, 1
    while d * d <= n:
        if n % d == 0:
            count += 1 if d * d == n else 2
        d += 1
    return count


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def series_samples(length: int, rng: random.Random, n_pairs: int = 200,
                   n_primes: int = 40, n_bound: int = 200) -> dict:
    """Seeded indices for C(mn) = C(m)C(n), C(p^2) = C(p)^2 - 1, |C(n)| <= d(n)."""
    pairs = []
    while len(pairs) < n_pairs:
        m = rng.randrange(2, 1024)
        n = rng.randrange(2, length // m + 1)
        if math.gcd(m, n) == 1:
            pairs.append((m, n))
    primes = [p for p in range(2, math.isqrt(length) + 1) if _is_prime(p)]
    prime_sample = sorted(rng.sample(primes, min(n_primes, len(primes))))
    bound_idx = sorted(rng.sample(range(1, length + 1), n_bound))
    return {"pairs": pairs, "primes": prime_sample,
            "bound": [(n, divisor_count(n)) for n in bound_idx]}


# -- quadratic fields: x = a + b*w with w^2 = t*w - nw ---------------------------

# Field data by the names rsmoment uses: (t, nw), and a totally positive
# generator of the different (sqrt5 * w = 2 + w; 2 sqrt2 (1 + sqrt2) = 4 + 2 sqrt2).
FIELDS = {
    "Q_sqrt5": {"t": 1, "nw": -1, "delta": (2, 1)},
    "Q_sqrt2": {"t": 0, "nw": -2, "delta": (4, 2)},
}

# Totally positive slot pairs (alpha, beta) the seed chooses from.
SLOTS = {
    "Q_sqrt5": [((1, 0), (1, 0)), ((1, 1), (1, 0)), ((2, 1), (1, 0)),
                ((3, 1), (2, 1)), ((2, 0), (1, 1)), ((3, -1), (1, 0))],
    "Q_sqrt2": [((1, 0), (1, 0)), ((2, 1), (1, 0)), ((3, 1), (1, 0)),
                ((3, -1), (2, 1)), ((2, 0), (1, 0)), ((4, 1), (3, 2))],
}


class _Arith:
    def __init__(self, t: int, nw: int):
        self.t, self.nw = t, nw

    def mul(self, x, y):
        (a, b), (c, d) = x, y
        return (a * c - self.nw * b * d, a * d + b * c + self.t * b * d)

    def conj(self, x):
        return (x[0] + self.t * x[1], -x[1])

    def norm(self, x):
        a, b = x
        return a * a + self.t * a * b + self.nw * b * b

    def div(self, x, y):
        n = Fraction(self.norm(y))
        num = self.mul(x, self.conj(y))
        return (num[0] / n, num[1] / n)

    def trace(self, x):
        return 2 * x[0] + self.t * x[1]

    def ideal_box(self, c):
        """(h11, h12, h22): the lattice c*O is spanned by (h11, 0) and (h12, h22)."""
        u, v = c, self.mul(c, (0, 1))
        while v[1] != 0:
            q = u[1] // v[1]
            u, v = v, (u[0] - q * v[0], u[1] - q * v[1])
        if u[1] < 0:
            u = (-u[0], -u[1])
        h11, h22 = abs(v[0]), u[1]
        return h11, u[0] % h11, h22

    @staticmethod
    def reduce(x, box):
        h11, h12, h22 = box
        k2 = x[1] // h22
        return ((x[0] - k2 * h12) % h11, x[1] - k2 * h22)


def ideal_generators(field: str, norm_max: int) -> list[tuple[int, int]]:
    """One generator per nonzero ideal of norm <= norm_max, by a coordinate search."""
    ar = _Arith(FIELDS[field]["t"], FIELDS[field]["nw"])
    seen = {}
    r = 4 * math.isqrt(norm_max) + 8
    for size in range(0, r + 1):  # smallest generators first
        for a in range(-size, size + 1):
            for b in range(-size, size + 1):
                if max(abs(a), abs(b)) != size:
                    continue
                n = abs(ar.norm((a, b)))
                if 0 < n <= norm_max:
                    seen.setdefault(ar.ideal_box((a, b)), (a, b))
    return sorted(seen.values(), key=lambda c: (abs(ar.norm(c)), c))


def kloosterman_brute(field: str, alpha, beta, c) -> complex:
    """sum over x in (O/(c))^x of e(Tr(alpha x/(delta c) + beta delta xbar/c))."""
    spec = FIELDS[field]
    ar = _Arith(spec["t"], spec["nw"])
    if abs(ar.norm(c)) == 1:
        return 1.0 + 0.0j
    box = ar.ideal_box(c)
    h11, _, h22 = box
    res = [(a, b) for b in range(h22) for a in range(h11)]
    delta = spec["delta"]
    wa = ar.div(alpha, ar.mul(delta, c))
    wb = ar.div(ar.mul(beta, delta), c)
    total = 0.0 + 0.0j
    for x in res:
        inv = next((y for y in res if ar.reduce(ar.mul(x, y), box) == (1 % h11, 0)), None)
        if inv is None:
            continue
        ph = (ar.trace(ar.mul(wa, x)) + ar.trace(ar.mul(wb, inv))) % 1
        total += cmath.exp(2j * math.pi * float(ph))
    return total


def kloosterman_table(seed: int) -> dict:
    """Per field: the seeded slot pair and brute-force sums for every ideal."""
    rng = random.Random(seed)
    out = {}
    for field in FIELDS:
        alpha, beta = rng.choice(SLOTS[field])
        rows = []
        for c in ideal_generators(field, KL_NORM_MAX):
            v = kloosterman_brute(field, alpha, beta, c)
            rows.append({"c": c, "re": v.real, "im": v.imag})
        out[field] = {"alpha": alpha, "beta": beta, "sums": rows}
    return out
