"""Reference oracle of the tests: brute-force truncated Haar sums.

This is the independent check on integration: it never looks at cells or
constructible functions, only at formula evaluation on representatives.
"""

import itertools
from collections import Counter
from fractions import Fraction
from math import inf

from motint import formula as F
from motint.padic import PadicElem, eval_formula


def haar_sum(cond, weight, ctx, level):
    """Truncated Riemann sum of a weighted condition over integral points.

    The variables are the free vf variables of cond, then any weighted
    variable cond does not mention; each ranges over representatives of
    O mod M^level.  A weight entry (m, var, center) multiplies the
    integrand by q^(-m * ord(var - center)), and a representative that
    hits a center is skipped.  The sum is divided by q^(level * n_vars).

    Exact for conditions and weights determined below the level; for
    weighted integrands the truncation error lies in [0, 4 q^-(1+m) level].
    """
    q = Fraction(ctx.q)
    names = list(F.frame_of(cond).vf)
    for _, var, _ in weight:
        if var not in names:
            names.append(var)
    centers = [(names.index(var), ctx.vf(Fraction(center)))
               for _, var, center in weight]
    d, n = ctx.d, len(names)
    # points counted per tuple of orders; each tuple's weight is added once
    counts = Counter()
    for coeffs in itertools.product(range(ctx.p ** level), repeat=d * n):
        point = [PadicElem.exact(ctx.p, d, coeffs[k * d:(k + 1) * d],
                                 ctx.modulus) for k in range(n)]
        if not eval_formula(cond, dict(zip(names, point)), ctx):
            continue
        orders = tuple((point[i] - center).ord() for i, center in centers)
        if inf not in orders:
            counts[orders] += 1
    total = sum(c * q ** -sum(m * o for (m, _, _), o in zip(weight, orders))
                for orders, c in counts.items())
    return Fraction(total) / q ** (level * n)
