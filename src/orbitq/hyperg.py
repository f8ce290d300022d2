"""The exact ladder series.

The kernel coefficients p_n = 1 / prod_{k<=n} gamma_k, the squared rung
norms prod_{k<=n} gamma_k / (n!)^2 and the matrix-coefficient terms (equal
to those norms) are all running products of one rung ratio gamma_k, which
`rung_ratios` gives as integer pairs (`orbit norms` reads the norms off
p_n).  The series run in `int` and build one `Fraction` per value returned.

Every exact argument (r0, a, b, y) is an `int` or a `Fraction`, read
through its numerator and denominator; a `Fraction` is built only for a
value the caller gets back.
"""

from fractions import Fraction
from operator import mul

Q = Fraction


def rung_ratios(r0, a, b, n: int) -> list:
    """[(num, den)] with num/den = gamma_k = k (k-1+a) (k-1+b) / (r0+k)
    for k = 1..n; den > 0.  The pairs are not reduced: with r0 = rn/rd,
    a = an/ad and b = bn/bd in lowest terms,
    num = k rd (an + (k-1) ad) (bn + (k-1) bd) and den = ad bd (rn + k rd).

    r0, a and b are each an `int` or a `Fraction`.  Raises ValueError
    unless they are all positive and n >= 0.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    rn, rd = r0.numerator, r0.denominator
    an, ad = a.numerator, a.denominator
    bn, bd = b.numerator, b.denominator
    if rn <= 0 or an <= 0 or bn <= 0:
        raise ValueError("parameters must be positive")
    # every factor is an arithmetic progression in k
    nums = map(mul, map(mul, range(rd, rd * (n + 1), rd), range(an, an + n * ad, ad)),
               range(bn, bn + n * bd, bd))
    step = ad * bd * rd
    den0 = ad * bd * (rn + rd)
    return list(zip(nums, range(den0, den0 + n * step, step)))


def kernel_coefficients(r0, a, b, n_max: int) -> list:
    """p_n = (r0+1)_n / (n! (a)_n (b)_n) = 1 / prod_{k<=n} gamma_k for
    n = 0..n_max."""
    out = [Q(1)]
    num = den = 1
    for g, h in rung_ratios(r0, a, b, n_max):
        p = Q(num * h, den * g)
        out.append(p)
        num, den = p.numerator, p.denominator
    return out


def matrix_coefficient(r0, a, b, y, n_terms: int):
    """(partial sum, remainder bound) of sum_n c_n (-y)^n with
    c_n = (a)_n (b)_n / ((1+r0)_n n!) = prod_{k<=n} gamma_k / (n!)^2,
    summed for n <= n_terms.

    r0, a, b and y are each an `int` or a `Fraction`; the sum and the bound
    come back as `Fraction`s.  Requires |y| < 1 and r0, a, b > 0.  The
    bound is geometric: for n > N the term ratio is at most
    |y| * max(1, (N+a)/(N+1)) * max(1, (N+b)/(N+1)); when that is >= 1 no
    finite bound is returned (None).
    """
    yn, yd = y.numerator, y.denominator
    if abs(yn) >= yd:
        raise ValueError("series form needs |y| < 1")
    if n_terms < 0:
        raise ValueError("n_terms must be >= 0")
    ratios = rung_ratios(r0, a, b, n_terms + 1)
    yn = -yn
    # the terms and the partial sum share one running denominator; entering
    # step n, term/den is c_{n-1} (-y)^(n-1) and total/den the sum before it
    total, term, den = 0, 1, 1
    for n, (g, h) in enumerate(ratios, start=1):
        total += term
        step = h * n * n * yd  # c_n / c_{n-1} = gamma_n / n^2
        total *= step
        den *= step
        term *= g * yn
    # term/den is now the first omitted term (n = n_terms + 1); the term
    # ratio bound is ratio_num/ratio_den, and (nn+p)/(nn+1) > 1 iff p > 1
    nn = n_terms + 1
    ratio_num, ratio_den = abs(yn), yd
    for p in (a, b):
        pn, pd = p.numerator, p.denominator
        if pn > pd:
            ratio_num *= nn * pd + pn
            ratio_den *= (nn + 1) * pd
    bound = (Q(abs(term) * ratio_den, den * (ratio_den - ratio_num))
             if ratio_num < ratio_den else None)
    return Q(total, den), bound
