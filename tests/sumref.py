"""Reference sum of products built from RingElem arithmetic.

The products q * a * b are formed one at a time and added one at a time,
the way the module products summed before ``charts.sum_products``: each
product is reduced on its own and each sum over unequal powers of g lifts
one summand.  The differential tests compare it with the kernel.
"""


def ref_sum_products(chart, triples):
    """(sum, cancelled): the sum of q * a * b over the triples, and whether
    a partial sum that already held a nonzero product cancelled to zero
    before the last triple (only then may the kernel's power of g differ)."""
    out = chart.zero()
    seen = cancelled = False
    for n, (a, b, q) in enumerate(triples):
        p = a * b * q
        seen = seen or not p.is_zero()
        out = out + p
        if seen and out.is_zero() and n < len(triples) - 1:
            cancelled = True
    return out, cancelled
