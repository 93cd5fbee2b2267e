"""The fraction of the mixing simplex that yields invertible output maps.

For the exponential decoherence family the output map is invertible exactly
when every mixing weight clears g(d, n) = 1 - n(d-1)/d. Three independent
routes to the resulting simplex fraction live here:

  * ``delta_closed_form``: the closed form ((d^2 (n-1) - n)/d)^d on the
    intermediate interval [d^2/(d^2-1), d/(d-1)], clamped to 0/1 outside;
  * ``delta_quadrature``: the nested integral over the admissible region
    with per-level bounds [g, 1 - (d-j) g - sum of earlier weights],
    normalized by the full simplex volume 1/d! (exact iterated integral,
    O(d^2) rational operations);
  * ``delta_monte_carlo``: uniform Dirichlet sampling with a min-weight
    test and a binomial error bar. Every d reads one shared stream of
    exponentials from the seed; a sweep draws it once for all its
    dimensions and shares each chunk's prefix sum and range-minimum table
    among them, rechecking exactly every row near its threshold, so a count
    never depends on which path or which other dimensions read the stream.

Plus the prime-power dimension sweep used for the superexponential-growth
table. The threshold g, which the quadrature reads as an exact ratio, and the
interval, ``_interval``, live in ``paulimix.threshold``.
"""

from __future__ import annotations

import math
import sys
from itertools import compress, islice
from typing import TYPE_CHECKING, Optional

from .errors import Frozen, RegimeMismatchError, ValidationError
from .finite_field import _MR_EXACT_BELOW, _int_root, _is_prime, factor_prime_power, is_prime_power
from .threshold import _check_n, _interval, _threshold_ratio, weight_threshold

# numpy is imported by the Monte Carlo paths only, and fractions by the
# quadrature only, so the regime and the closed form run without either
if TYPE_CHECKING:
    from fractions import Fraction

    import numpy as np

# values of the shared exponential stream drawn per chunk: one reused buffer of
# this many values, with the shared path's prefix sum and range-minimum table
# beside it, stays in cache; numpy fills it in C order, so the stream, and with
# it every hit count, does not depend on the chunk size
_MC_CHUNK = 1 << 16

# the exact row test, _exact_hits: on rows up to this long, one np.minimum per
# column beats e.min(axis=1) (0.13 vs 0.30 ms per direct-path chunk at d=16);
# from about 40 values on, the single reduction wins, as the column calls grow
# with the row length. The shared path's table takes every row length.
_MC_COLUMN_MIN_ROW = 40

# shared path: a row is decided from its prefix-sum margin only when the margin
# clears this multiple of the rounding bound derived in _mc_hits; every other
# row goes to the exact row test
_MC_BOUND_SLACK = 2.0

# Monte Carlo work refused beyond this many values of the stream, samples*(d+1)
# for the largest d: the kernel reads 3.5e7-9e7 values/s (one process, 2-core
# VM), so this is 12-30 s of work, where 10^6 samples at d=32 take 0.4 s
_MC_MAX_VALUES = 1 << 30

# ... and beyond this many values reduced, samples*(d+1) summed over the
# dimensions, since each d reduces its own rows: the direct path reduces
# 6.5e7-1.4e8 values/s, drawing included, so this is 15-33 s of work. A sweep's
# shared path reduces faster (3.8e8 values/s over 7..32, 2.7e9 over the 1245
# prime powers in 101..9973), so the limit also refuses some long sweeps that
# would finish in seconds. Timings: one process, 2-core VM.
_MC_MAX_REDUCED = 1 << 31

# Monte Carlo is refused beyond this d: the buffer holds two draws of d+1
# values, and a sweep's shared path adds a prefix sum and a table of that
# length, so at this d one process peaks at 100 MB (one dimension) to 230 MB (a
# sweep), where the two draws alone would take 8 GB at d = 5e8
_MC_MAX_D = 1 << 22

# the exact quadrature is refused beyond this d: its rational coefficients
# lengthen with d, and the cost grows about as d^4 (0.16 s at d=64, 0.68 s at
# d=101, 1.6 s at d=128, one process on a 2-core VM)
_QUADRATURE_MAX_D = 101

# a sweep is refused beyond this many integers in its range, hi - lo + 1:
# where sqrt(hi) is in the sieve's reach, a range this wide is sieved in 0.1 s
# and `sweep --lo 1000 --hi 1000000` (78k closed-form rows) takes 0.9 s as one
# process; near the top of the exact primality test (hi ~ 1e20..3e24) each
# prime left by the sieve takes 12 or 13 Miller-Rabin rounds, and a range this wide
# takes 8-10 s (one process, 2-core VM)
_SWEEP_MAX_WIDTH = 1 << 20

# the range of a sweep is sieved by the primes up to this bound, or up to
# sqrt(hi) if that is smaller; above it, what the sieve leaves is tested with
# the exact Miller-Rabin test one number at a time
_SIEVE_MAX_PRIME = 1 << 20


class MeasureResult(Frozen):
    """An invertible-fraction value with its provenance."""

    def __init__(
        self,
        d: int,
        n: float,
        delta: float,
        method: str,  # "closed_form" | "quadrature" | "monte_carlo"
        samples: Optional[int] = None,
        stderr: Optional[float] = None,
        seed: Optional[int] = None,
    ) -> None:
        vars(self).update(d=d, n=n, delta=delta, method=method, samples=samples, stderr=stderr, seed=seed)


def delta_closed_form(d: int, n: float) -> MeasureResult:
    """Closed-form invertible fraction; 1 above the interval, 0 below."""
    factor_prime_power(d)
    _check_n(n)
    return MeasureResult(d=d, n=n, delta=_closed_form_delta(d, n), method="closed_form")


def _closed_form_delta(d: int, n: float) -> float:
    lower, upper = _interval(d)
    if n >= upper:
        return 1.0
    if n <= lower:
        return 0.0
    return ((d * d * (n - 1.0) - n) / d) ** d


def _nested_simplex_integral(d: int, g: Fraction) -> Fraction:
    """Iterated integral of 1 over {x_j >= g, sum_{j<=m} x_j <= 1 - (d-m) g}, exactly.

    Level j integrates x_{j+1} over [g, 1 - (d-j) g - s], s the sum of the
    earlier weights: F_j(s) = G(1 - (d-j) g) - G(s + g), G the antiderivative
    of F_{j+1}, from F_{d-1}(s) = 1 - 2g - s. Each F_j is kept in v = s + (d-1-j) g,
    where the limits are [v, 1 - 2g] at every level, so the integral is O(d^2).
    """
    from fractions import Fraction

    if (d + 1) * g >= 1:
        return Fraction(0)  # the region is empty or a single point
    top = 1 - 2 * g
    top_powers = [top**k for k in range(1, d + 1)]
    poly = [top, Fraction(-1)]
    for _ in range(d - 1):
        anti = [c / (k + 1) for k, c in enumerate(poly)]
        poly = [sum(a * t for a, t in zip(anti, top_powers))] + [-a for a in anti]
    return sum(c * ((d - 1) * g) ** k for k, c in enumerate(poly))


def _check_quadrature_d(d: int) -> None:
    if d > _QUADRATURE_MAX_D:
        raise ValidationError(
            f"the exact quadrature is limited to d <= {_QUADRATURE_MAX_D}, got d={d}; use the closed form"
        )


def delta_quadrature(d: int, n: float) -> MeasureResult:
    """Invertible fraction via the nested integral, normalized by 1/d!.

    Exact iterated integral, O(d^2) rational operations: g is taken exactly
    from the float n, so the result is the integral for that n rounded once.
    Only defined on the closed intermediate interval; outside it raises
    RegimeMismatchError. Refused (ValidationError) for d above
    ``_QUADRATURE_MAX_D``, where its cost passes a second.
    """
    return MeasureResult(d=d, n=n, delta=float(_quadrature_fraction(d, n)), method="quadrature")


def _quadrature_fraction(d: int, n: float) -> Fraction:
    """``delta_quadrature``'s value as the exact Fraction, before it is rounded to a float."""
    factor_prime_power(d)
    _check_n(n)
    lower, upper = _interval(d)
    if not lower <= n <= upper:
        raise RegimeMismatchError(
            f"n={n} outside the intermediate interval [{lower}, {upper}] for d={d}"
        )
    _check_quadrature_d(d)
    from fractions import Fraction

    return _nested_simplex_integral(d, Fraction(*_threshold_ratio(d, n))) * math.factorial(d)


def _check_mc(samples: int, seed: int, ds: list[int]) -> None:
    """Refuses a Monte Carlo run of ``samples`` draws at dimensions ``ds`` that is malformed, too long or too large."""
    if samples < 1:
        raise ValidationError(f"need at least one sample, got {samples}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    d = max(ds, default=0)
    if d > _MC_MAX_D:
        raise ValidationError(
            f"Monte Carlo is limited to d <= {_MC_MAX_D}, got d={d}: its buffer holds two draws of d+1 values"
        )
    if samples * (d + 1) > _MC_MAX_VALUES:
        raise ValidationError(
            f"Monte Carlo of {samples} samples at d={d} reads {samples * (d + 1)} values, "
            f"over the limit of {_MC_MAX_VALUES}; use fewer samples"
        )
    reduced = samples * (sum(ds) + len(ds))
    if reduced > _MC_MAX_REDUCED:
        raise ValidationError(
            f"Monte Carlo of {samples} samples at {len(ds)} dimensions reduces {reduced} values, "
            f"over the limit of {_MC_MAX_REDUCED}; use fewer samples or dimensions"
        )


_UNIT_ROUNDOFF = 2.0**-53


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u): the relative error bound of k roundings."""
    return k * _UNIT_ROUNDOFF / (1 - k * _UNIT_ROUNDOFF)


def _mc_hits(ds: list[int], hs: list[float], samples: int, seed: int) -> list[int]:
    """Per (d, h): how many of ``samples`` uniform draws on d+1 coordinates have min weight >= h.

    Every d reads the same flat stream of exponentials, from the first stream
    spawned from the seed: its draws are the first samples*(d+1) values, d+1
    to a row. So the stream is drawn once, samples*(max(ds)+1) values in
    chunks of ``_MC_CHUNK``, and the buffer keeps the last max(ds) values of
    the previous chunk in front of the new one, so a row that straddles a
    chunk boundary is read whole. A draw is a row e over its sum, and it
    counts when e.min() / e.sum() >= h with numpy's own row sum: dividing by a
    positive float is monotone under rounding, so that is min(e/sum(e)) bit
    for bit. Every count is fixed by this test; two paths compute it, chosen
    per chunk from the dimensions that still read it.

    Direct, when fewer than two dimensions, or fewer than the table below
    has levels, still read the chunk (so always for ``delta_monte_carlo``):
    each d views its rows as (rows, d+1) and counts them with the exact row
    test ``_exact_hits``, so each d reads the chunk twice.

    Shared, otherwise: the chunk gets one prefix sum P, P[i] the sum of its
    first i values, and one range-minimum table T, T_k[i] the minimum of the
    2^k values from i on (Bender & Farach-Colton 2000), built in place one
    level at a time with one np.minimum of shifted views, up to the level
    floor(log2(max(ds)+1)). The dimensions are taken by level k =
    floor(log2(d+1)): a row at offset o has the minimum min(T_k[o],
    T_k[o+d+1-2^k]), exact, and the sum S~ = P[o+d+1] - P[o], both strided
    over the rows. S~ is not numpy's row sum S, so a row is decided from its
    margin m = fl(min - fl(h S~)) only when |m| > |h| tau. Every other row is
    gathered as a contiguous (rows, d+1) array and sent to ``_exact_hits``,
    so both paths give the same count.

    The bound: the L values of a chunk are >= 0, with computed total P_L.
    Every computed prefix is within gamma_L P_L of its exact value and a row's
    exact sum is at most P_L (recursive summation, Higham 2002, sec. 4.2), so
    with the subtraction's rounding |S~ - S| <= (2 gamma_L + gamma_{d+1} + 2u)
    P_L. Adding the roundings of the product and the difference, m > |h| tau
    gives min >= h S and so a hit, m < -|h| tau gives min (1+2u) < h S and so
    a miss, for tau = _MC_BOUND_SLACK (2 gamma_L + gamma_{max(ds)+1} + 5u)
    P_L; the slack of 2 covers the second-order terms. For h <= 0 every row
    is a hit, and no row clears -|h| tau <= 0 as a miss.
    """
    if not ds:
        return []
    import numpy as np  # once per run; the per-chunk helpers take it as their first argument

    width = max(ds) + 1
    total = samples * width
    tail = width - 1
    # a chunk no shorter than a row: the tail carried forward stays below one chunk
    chunk = max(_MC_CHUNK, width)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    # zeros, so that the first chunk's prefix sum and table start from finite values
    buf = np.zeros(tail + min(chunk, total))
    hits = [0] * len(ds)
    # by row length: a dimension whose draws are used up drops off the front
    entries = sorted((d + 1, k, h) for k, (d, h) in enumerate(zip(ds, hs)))
    # the shared path serves a chunk that at least two dimensions, and at least
    # one per table level, still read: per 2^16-value chunk its prefix sum costs
    # 0.28 ms and each level 0.03-0.09 ms, and each dimension it serves saves
    # 0.15-0.6 ms of the direct path
    share_from = max(2, width.bit_length() - 1)
    if len(entries) >= share_from:
        # prefix sum and table over the chunk; margins, sums and flags of one d's rows
        most = len(buf) // entries[0][0] + 1
        scratch = np.zeros(len(buf) + 1), np.empty(len(buf)), np.empty(most), np.empty(most), np.empty(most, bool)
    live = 0
    for start in range(0, total, chunk):
        if start:
            buf[:tail] = buf[chunk:]
        size = min(chunk, total - start)
        rng.standard_exponential(out=buf[tail : tail + size])
        # buf[i] holds value start - tail + i of the stream
        while entries[live][0] * samples <= start:
            live += 1
        if len(entries) - live >= share_from:
            _shared_hits(np, buf, start, size, tail, samples, entries[live:], scratch, hits)
        else:
            for row, k, h in entries[live:]:
                o, rows = _first_row(start, size, tail, row, samples)
                hits[k] += _exact_hits(np, buf[o : o + rows * row].reshape(-1, row), h)
    return hits


def _first_row(start: int, size: int, tail: int, row: int, samples: int) -> tuple[int, int]:
    """(offset in the buffer, count) of the rows of length ``row`` that end in the chunk."""
    first = start // row
    return first * row - start + tail, min((start + size) // row, samples) - first


def _exact_hits(np, e: np.ndarray, h: float) -> int:
    """How many rows of the C-contiguous (rows, d+1) array ``e`` have min / sum >= h, with numpy's row sum."""
    if e.shape[1] <= _MC_COLUMN_MIN_ROW:
        low = e[:, 0].copy()
        for j in range(1, e.shape[1]):
            np.minimum(low, e[:, j], out=low)
    else:
        low = e.min(axis=1)
    low /= e.sum(axis=1)
    return int(np.count_nonzero(low >= h))


def _shared_hits(np, buf, start, size, tail, samples, entries, scratch, hits) -> None:
    """Adds the hits among the rows of ``entries`` (ascending row length) that end in the chunk to ``hits``."""
    prefix, table, margins, sums, flags = scratch
    n = tail + size
    np.cumsum(buf[:n], out=prefix[1 : n + 1])
    tau = _MC_BOUND_SLACK * (2 * _gamma(n) + _gamma(entries[-1][0]) + 5 * _UNIT_ROUNDOFF) * prefix[n]
    np.minimum(buf[: n - 1], buf[1:n], out=table[: n - 1])
    level = 1  # table[i] is the minimum of the 2^level values from i on
    for row, k, h in entries:
        while 2 << level <= row:
            m = n - (2 << level) + 1
            # in place: each slot reads only itself and a later slot
            np.minimum(table[:m], table[1 << level : (1 << level) + m], out=table[:m])
            level += 1
        o, rows = _first_row(start, size, tail, row, samples)
        end = o + rows * row
        span = 1 << level
        margin = np.minimum(table[o:end:row], table[o + row - span : end + row - span : row], out=margins[:rows])
        scaled = np.subtract(prefix[o + row : end + row : row], prefix[o:end:row], out=sums[:rows])
        np.multiply(scaled, h, out=scaled)
        np.subtract(margin, scaled, out=margin)
        bound = abs(h) * tau
        sure = np.count_nonzero(np.greater(margin, bound, out=flags[:rows]))
        hits[k] += sure
        if np.count_nonzero(np.greater_equal(margin, -bound, out=flags[:rows])) > sure:
            near = np.flatnonzero(np.abs(margin) <= bound)
            hits[k] += _exact_hits(np, buf[o + row * near[:, None] + np.arange(row)], h)


def delta_monte_carlo(d: int, n: float, samples: int, seed: int) -> MeasureResult:
    """Monte-Carlo invertible fraction over uniform simplex draws.

    Deterministic for a fixed seed. The draws come from the first stream
    spawned from the seed, not from the seed itself, so a seed gives the
    same numbers as in earlier releases. Refused, like the closed form, when
    d is not a prime power.
    """
    factor_prime_power(d)
    _check_mc(samples, seed, [d])
    delta = _mc_hits([d], [weight_threshold(d, n)], samples, seed)[0] / samples
    stderr = math.sqrt(delta * (1.0 - delta) / samples)
    return MeasureResult(
        d=d,
        n=n,
        delta=delta,
        method="monte_carlo",
        samples=samples,
        stderr=stderr,
        seed=seed,
    )


def prime_powers_in(lo: int, hi: int) -> list[int]:
    """All prime powers in [lo, hi], ascending, by a sieve of the range.

    The primes are what is left of [lo, hi] once the multiples of every
    prime up to sqrt(hi) are struck out (Eratosthenes, segmented); past
    ``_SIEVE_MAX_PRIME``^2 the sieve stops at that bound and the exact
    primality test decides what it leaves. The powers p^k, k >= 2, come from
    the integer k-th roots of lo - 1 and hi. Refused (ValidationError) for a
    range wider than ``_SWEEP_MAX_WIDTH``.
    """
    _check_range(lo, hi)
    if hi - lo + 1 > _SWEEP_MAX_WIDTH:
        raise ValidationError(
            f"a sweep is limited to {_SWEEP_MAX_WIDTH} integers, got [{lo}, {hi}] with {hi - lo + 1}"
        )
    bound = min(math.isqrt(hi), _SIEVE_MAX_PRIME)
    small = bytearray([1]) * (bound + 1)
    small[:2] = b"\0\0"
    for p in range(2, math.isqrt(bound) + 1):
        if small[p]:
            small[p * p :: p] = bytes(len(range(p * p, bound + 1, p)))
    # sieve[i] says whether lo + i may be prime
    sieve = bytearray([1]) * (hi - lo + 1)
    for p in compress(range(bound + 1), small):
        first = max(p * p, -(-lo // p) * p)
        if first <= hi:
            sieve[first - lo :: p] = bytes(len(range(first, hi + 1, p)))
    found = [d for d in compress(range(lo, hi + 1), sieve) if d >= 2]
    if bound < math.isqrt(hi):
        found = [d for d in found if _is_prime(d)]
    for k in range(2, hi.bit_length()):
        found += [p**k for p in range(_int_root(lo - 1, k) + 1, _int_root(hi, k) + 1) if _is_prime(p)]
    return sorted(found)


def _check_range(lo: int, hi: int) -> None:
    # past the bound where the primality test stops being exact, the only prime
    # powers left to find are powers of primes up to 41, which lie far apart
    if not 2 <= lo <= hi < _MR_EXACT_BELOW:
        raise ValidationError(f"need 2 <= lo <= hi < {_MR_EXACT_BELOW}, got lo={lo}, hi={hi}")


# offenders a regime-mismatch error names one by one; the rest are given by their ranges
_LISTED_OFFENDERS = 8


def sweep_dimensions(lo: int, hi: int, n: float) -> list[int]:
    """The prime powers in [lo, hi], once n is known to lie in the intermediate interval of each.

    Both ends of the interval decrease with d, so n lies in every interval
    exactly when lower(d_min) <= n <= upper(d_max), d_min and d_max the
    smallest and largest prime powers in the range. That is checked before
    the range is enumerated, so a mismatch over a long range is refused at
    once: the offenders are the prime powers below the first d with
    lower(d) <= n and from the first d with upper(d) < n on. The error names
    the first few and gives the rest by their ranges.
    """
    _check_range(lo, hi)
    _check_n(n)
    d_min = next((d for d in range(lo, hi + 1) if is_prime_power(d)), None)
    if d_min is None:
        return []
    d_max = next(d for d in range(hi, d_min - 1, -1) if is_prime_power(d))
    if _interval(d_min)[0] <= n <= _interval(d_max)[1]:
        return prime_powers_in(d_min, d_max)
    bands = (
        range(d_min, _first(d_min, d_max, lambda d: _interval(d)[0] <= n)),
        range(_first(d_min, d_max, lambda d: _interval(d)[1] < n), d_max + 1),
    )
    offenders = (d for band in bands for d in band if is_prime_power(d))
    listed = list(islice(offenders, _LISTED_OFFENDERS + 1))
    needs = []
    for d in listed[:_LISTED_OFFENDERS]:
        lower, upper = _interval(d)
        needs.append(f"d={d} needs n in [{_end_text(lower)}, {_end_text(upper)}]")
    if len(listed) > _LISTED_OFFENDERS:
        ranges = [range(max(b.start, listed[-1]), b.stop) for b in bands]
        rest = " or ".join(f"[{r.start}, {r.stop - 1}]" for r in ranges if r)
        needs.append(f"and every other prime power in {rest}")
    raise RegimeMismatchError(f"n={n} outside the intermediate interval for: " + "; ".join(needs))


def _end_text(x: float) -> str:
    """An interval end to 6 significant digits, or in full where those would read 1: no end is 1."""
    text = f"{x:.6g}"
    return text if text != "1" else repr(x)


def _first(lo: int, hi: int, pred) -> int:
    """The smallest d in [lo, hi] with pred(d), or hi + 1; pred is false then true."""
    while lo <= hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid - 1
        else:
            lo = mid + 1
    return lo


class SweepRow(Frozen):
    def __init__(self, d: int, delta: float, log10_delta: float) -> None:
        vars(self).update(d=d, delta=delta, log10_delta=log10_delta)


_SWEEP_METHODS = ("closed_form", "quadrature", "monte_carlo")


def sweep(
    lo: int,
    hi: int,
    n: float,
    method: str = "closed_form",
    samples: int = 10**6,
    seed: int = 0,
) -> list[SweepRow]:
    """Invertible fraction per prime-power dimension in [lo, hi] at a fixed n.

    Every dimension must contain n in its closed intermediate interval;
    otherwise ``sweep_dimensions`` raises a RegimeMismatchError that names
    the first offenders and gives the rest by their ranges. With
    ``method="monte_carlo"`` every dimension reads the one shared stream of
    the seed in a single pass, and each row's delta is exactly
    ``delta_monte_carlo(d, n, samples, seed).delta``. Each row's value is
    computed once, and its log10_delta is log10(delta) where delta is a
    normal float. Where delta is 0 or subnormal, the log is taken before
    rounding: d log10 of the closed form's base, log10 of the quadrature's
    exact Fraction, and -inf for a Monte Carlo count of 0.
    """
    ds = sweep_dimensions(lo, hi, n)
    if method not in _SWEEP_METHODS:
        raise ValidationError(f"unknown method {method!r}")
    tiny = sys.float_info.min
    rows = []
    if method == "closed_form":
        for d in ds:
            delta = _closed_form_delta(d, n)
            if delta >= tiny:
                log10 = math.log10(delta)
            else:
                base = (d * d * (n - 1.0) - n) / d
                log10 = d * math.log10(base) if n > _interval(d)[0] and base > 0 else -math.inf
            rows.append(SweepRow(d=d, delta=delta, log10_delta=log10))
    elif method == "quadrature":
        for d in ds:  # refused before the first row is computed
            _check_quadrature_d(d)
        for d in ds:
            q = _quadrature_fraction(d, n)
            delta = float(q)
            if delta >= tiny:
                log10 = math.log10(delta)
            else:
                log10 = math.log10(q.numerator) - math.log10(q.denominator) if q else -math.inf
            rows.append(SweepRow(d=d, delta=delta, log10_delta=log10))
    else:
        _check_mc(samples, seed, ds)
        for d, k in zip(ds, _mc_hits(ds, [weight_threshold(d, n) for d in ds], samples, seed)):
            delta = k / samples
            rows.append(SweepRow(d=d, delta=delta, log10_delta=math.log10(delta) if delta >= tiny else -math.inf))
    return rows
