"""Reference sums of products built from RingElem arithmetic.

The products q * a * b are formed one at a time and added one at a time,
the way the module products summed before ``charts.sum_products``: each
product is reduced on its own and each sum over unequal powers of g lifts
one summand.  The A-linear combinations sum q * a * X are folded the same
way, one scaled X at a time.  The differential tests compare them with the
kernel and with ``SparseElem.combination``.
"""


def ref_fold(chart, summands):
    """(sum, cancelled): the ring elements added one at a time, and whether
    a partial sum that already held a nonzero summand cancelled to zero
    before the last one (only then may a kernel's power of g differ)."""
    out = chart.zero()
    seen = cancelled = False
    for n, p in enumerate(summands):
        seen = seen or not p.is_zero()
        out = out + p
        if seen and out.is_zero() and n < len(summands) - 1:
            cancelled = True
    return out, cancelled


def ref_sum_products(chart, triples):
    """(sum, cancelled) of q * a * b over the triples, by ``ref_fold``."""
    return ref_fold(chart, [a * b * q for a, b, q in triples])


def ref_combination(zero, items):
    """(sum, cancelled): sum q * a * X over (a, X, q) items, folded the way
    the A-linear combinations were summed before ``SparseElem.combination``:
    each X scaled by a * q, then added to the running sum.  cancelled is set
    when the partial sum at some key, once nonzero, cancelled to exactly zero
    before the last item (only then may a coefficient's numerator and power
    of g differ from the kernel's)."""
    out, seen, cancelled = zero, set(), False
    for n, (a, X, q) in enumerate(items):
        out = out + X.scale(a * q)
        if n < len(items) - 1 and seen - out.terms.keys():
            cancelled = True
        seen |= out.terms.keys()
    return out, cancelled
