"""Reference polynomial arithmetic on plain ``tuple -> Fraction`` dicts.

Deliberately naive and independent of ``jetalg.multipoly``'s integer
numerator kernel, so the differential tests can compare the two.  Every
function returns a dict without zero coefficients.
"""

from fractions import Fraction

from jetalg.multipoly import grlex_key


def _clean(d):
    return {m: c for m, c in d.items() if c}


def _mono_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def ref_add(a, b, sign=1):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + sign * c
    return _clean(out)


def ref_neg(a):
    return {m: -c for m, c in a.items()}


def ref_scale(a, c):
    return _clean({m: v * c for m, v in a.items()})


def ref_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = _mono_add(m1, m2)
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return _clean(out)


def ref_pow(a, e, nvars):
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(e):
        out = ref_mul(out, a)
    return out


def ref_partial(a, i):
    out = {}
    for m, c in a.items():
        if m[i]:
            dm = m[:i] + (m[i] - 1,) + m[i + 1:]
            out[dm] = out.get(dm, Fraction(0)) + c * m[i]
    return _clean(out)


def ref_div_exact(num, den):
    """Greedy graded-lex division; None when den does not divide num."""
    dm = max(den, key=grlex_key)
    dc = den[dm]
    quot = {}
    rem = dict(num)
    while rem:
        m = max(rem, key=grlex_key)
        if not all(a >= b for a, b in zip(m, dm)):
            return None
        qm = tuple(a - b for a, b in zip(m, dm))
        qc = rem[m] / dc
        quot[qm] = qc
        rem = ref_add(rem, ref_mul({qm: qc}, den), -1)
    return quot


def ref_reduce(a, relations):
    """Reduce modulo monic relations y^d = rhs, given as a list of
    (variable index, degree d, rhs dict), last generator first."""
    for idx, d, rhs in relations:
        while any(m[idx] >= d for m in a):
            out = {}
            for m, c in a.items():
                if m[idx] >= d:
                    base = m[:idx] + (m[idx] - d,) + m[idx + 1:]
                    part = ref_mul({base: c}, rhs)
                else:
                    part = {m: c}
                out = ref_add(out, part)
            a = out
    return a


def ref_str(a, vars):
    """The display format of Poly.__str__, from the reference dict."""
    if not a:
        return "0"
    pieces = []
    items = sorted(a.items(), key=lambda t: grlex_key(t[0]), reverse=True)
    for i, (m, c) in enumerate(items):
        mono = "*".join(
            name if e == 1 else f"{name}^{e}" for name, e in zip(vars, m) if e)
        mag = abs(c)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if i == 0:
            pieces.append(("-" if c < 0 else "") + body)
        else:
            pieces.append(("- " if c < 0 else "+ ") + body)
    return " ".join(pieces)
