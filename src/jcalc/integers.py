"""Integer primitives shared by the table, the motive and the matrix code.

Trial-division factorization, primality, prime-power detection, the
Mobius function, p-adic valuation and the fraction-free (Bareiss) determinant over Z.  Inputs
are desk-scale, so trial division, under a budget, is enough; nothing
here imports a dependency or does work at import time.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .errors import SearchBudgetExceeded


# Largest trial divisor factorize tries: it refuses an n whose part left
# after dividing out the primes up to this bound is >= (_TRIAL_BUDGET + 1)^2.
_TRIAL_BUDGET = 10 ** 6


def factorize(n: int) -> List[Tuple[int, int]]:
    """Prime factorization [(p, e), ...] with p increasing; [] for n < 2.

    Raises SearchBudgetExceeded, naming n, when trial division would
    need a divisor above _TRIAL_BUDGET."""
    out, f, rest = [], 2, n
    while f * f <= rest and f <= _TRIAL_BUDGET:
        if rest % f == 0:
            e = 0
            while rest % f == 0:
                rest //= f
                e += 1
            out.append((f, e))
        f += 1
    if f * f <= rest:
        raise SearchBudgetExceeded("factoring %d needs trial divisors above the budget %d"
                                   % (n, _TRIAL_BUDGET))
    if rest > 1:
        out.append((rest, 1))
    return out


def is_prime(n: int) -> bool:
    return factorize(n) == [(n, 1)]


def prime_power(m: int) -> Optional[Tuple[int, int]]:
    """(p, n) if m = p^n for a prime p and n >= 1, else None."""
    factors = factorize(m)
    return factors[0] if len(factors) == 1 else None


def mobius(n: int) -> int:
    """mu(n) for n >= 1: (-1)^k if n is a product of k distinct primes, else 0."""
    factors = factorize(n)
    return 0 if any(e > 1 for _p, e in factors) else (-1) ** len(factors)


def padic_valuation(n: int, p: int) -> int:
    """Exponent of the prime p in the nonzero integer n."""
    if p < 2:
        raise ValueError("the valuation needs p >= 2, got %d" % p)
    if n == 0:
        raise ValueError("the p-adic valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant over Z by fraction-free Gaussian elimination (Bareiss)."""
    n = len(rows)
    work = [list(r) for r in rows]
    sign, prev = 1, 1
    for c in range(n - 1):
        pivot = next((r for r in range(c, n) if work[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            work[c], work[pivot] = work[pivot], work[c]
            sign = -sign
        for r in range(c + 1, n):
            for cc in range(c + 1, n):
                work[r][cc] = (work[r][cc] * work[c][c] - work[r][c] * work[c][cc]) // prev
            work[r][c] = 0
        prev = work[c][c]
    return sign * work[n - 1][n - 1] if n else 1
