"""Sparse multivariate polynomials over exact rationals.

A polynomial is stored as integer numerators over one content denominator:
``nums`` maps packed monomials to nonzero ``int``s and ``den`` is a positive
``int``, the polynomial being ``sum(nums[m] * x^m) / den``.  The form is
canonical: ``den > 0``, ``gcd(den, *nums.values()) == 1`` and no zero
numerator is stored, so two equal polynomials have identical ``nums`` and
``den`` and equality is plain dict-and-int equality.  The ``tuple -> Fraction``
view ``terms`` is built lazily for display, serialization and callers that
want rational coefficients; arithmetic never touches it.  The monomial order
used everywhere (printing, leading terms, division) is graded lexicographic:
compare total degree first, then the exponent tuple.

Packed monomials.  Over n variables an exponent tuple m is one ``int``
(Kronecker substitution) with fixed 16-bit fields: variable i sits at bit
16 * (n - 1 - i), so variable 0 is the most significant, and the total
degree sits in a top field at bit 16 * n.  Integer order is then graded-lex
order, ``m1 + m2`` is the monomial product, and a field is read with a shift
and a mask.  Every polynomial keeps its total degree below
``DEGREE_LIMIT`` = 2^15 (so at most 32767): the public constructor and every
product check it and raise ``ValueError`` beyond it, so the sum of two valid
fields stays below 2^16 and no field ever carries into its neighbour.  Keys
are packed and unpacked only at the edges: the public constructor,
``const``/``variable``, ``coeff``, ``extended`` and the ``terms`` view.

Multi-indices are exponent tuples.  ``mi_range`` lists those up to a degree
in graded-lex order from one cached table per (n, degree), and ``mi_fill``
is the one walk that fills a table over them from lower entries: jets,
delta powers, decompositions and both transition routes use it, most
through ``mi_powers``.

Work meter.  ``metered(fn, *args)`` runs fn under one budget of WORK_BUDGET
units, which nested metered calls share.  Before its work, ``add_product``
charges PAIR_UNITS per pair of terms plus the product of the two limb
counts, each step of ``poly_div_exact`` its scan and its subtraction, and
``_make``'s content gcd GCD_UNITS times the two limb counts; a spent budget
raises ValueError.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from types import MappingProxyType


# ---------------------------------------------------------------------------
# multi-index helpers

def mi_zero(n):
    return (0,) * n


def mi_unit(n, i):
    if not 0 <= i < n:
        raise IndexError(f"direction {i} out of range for {n} variables")
    return tuple(1 if j == i else 0 for j in range(n))


def mi_add(a, b):
    if len(a) != len(b):
        raise ValueError("multi-index length mismatch")
    return tuple(map(operator.add, a, b))


def mi_sub(a, b):
    if len(a) != len(b):
        raise ValueError("multi-index length mismatch")
    c = tuple(x - y for x, y in zip(a, b))
    if any(x < 0 for x in c):
        raise ValueError(f"{b} is not componentwise <= {a}")
    return c


def mi_check(m, n):
    """m as a tuple, checked to have one entry per variable (n of them),
    each a non-negative int."""
    m = tuple(m)
    if len(m) != n:
        raise ValueError(f"multi-index {m} does not have {n} entries")
    for e in m:
        if type(e) is not int or e < 0:
            raise ValueError(f"multi-index {m} has an entry that is not a "
                             f"non-negative integer")
    return m


def mi_lower(m, i):
    """m - e_i, for m[i] >= 1."""
    return m[:i] + (m[i] - 1,) + m[i + 1:]


def mi_split(m):
    """(i, m - e_i) for the first direction i with m[i] >= 1: the step by
    which tables over multi-indices are filled from lower entries."""
    for i, e in enumerate(m):
        if e:
            return i, mi_lower(m, i)
    raise ValueError("the zero multi-index has no predecessor")


def mi_le(a, b):
    """Componentwise a <= b."""
    if len(a) != len(b):
        raise ValueError("multi-index length mismatch")
    return all(x <= y for x, y in zip(a, b))


def mi_degree(a):
    return sum(a)


@functools.lru_cache(maxsize=1024)
def mi_inv_factorial(a):
    """Fraction(1, m!) with m! = prod_i m_i!, built once per m: the jet
    coefficients scale by it."""
    return Fraction(1, math.prod(map(math.factorial, a)))


def mi_binomial(m, k):
    """binom(m, k) = prod_i binom(m_i, k_i); requires k <= m componentwise."""
    if not mi_le(k, m):
        raise ValueError(f"binomial requires {k} <= {m} componentwise")
    return math.prod(map(math.comb, m, k))


def grlex_key(m):
    return (sum(m), m)


def mi_range(n, max_degree):
    """All multi-indices of length n with total degree <= max_degree, in
    graded lexicographic order: a fresh list of the cached table."""
    return list(_mi_table(n, max_degree))


@functools.cache
def _mi_table(n, k):
    """mi_range(n, k) as a tuple, built once per (n, k).  Each multi-index
    of degree d is one multiset of d directions; combinations_with_replacement
    yields them in decreasing lexicographic order of the counts."""
    return tuple(tuple(map(c.count, range(n))) for d in range(k + 1)
                 for c in reversed(list(itertools.combinations_with_replacement(range(n), d))))


def mi_fill(first, n, k, step):
    """{m: entry} for every |m| <= k in mi_range order, the one walk that
    fills tables over multi-indices: entry 0 is ``first`` and entry m is
    step(entry at m - e_i, i), i the first direction of m (mi_split)."""
    ms = _mi_table(n, k)
    out = {ms[0]: first}
    for m in ms[1:]:
        i, prev = mi_split(m)
        out[m] = step(out[prev], i)
    return out


def mi_below(m):
    """All multi-indices k with k <= m componentwise, graded-lex sorted."""
    return sorted(itertools.product(*(range(x + 1) for x in m)), key=grlex_key)


@functools.lru_cache(maxsize=1024)
def mi_binomials(m):
    """((k, binom(m, k)) for k in mi_below(m)), built once per m."""
    return tuple((k, mi_binomial(m, k)) for k in mi_below(m))


def mi_powers(one, factors, k):
    """{m: prod_i factors[i]^{m_i}} for every |m| <= k, in mi_range order:
    mi_fill from the unit ``one``, one product by a factor per entry."""
    return mi_fill(one, len(factors), k, lambda p, i: p * factors[i])


def mono_str(names, m):
    """Display of the exponent tuple m over the variable names, as
    x^2*y; empty for the zero multi-index."""
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, m) if e)


def indexed_names(stem, n, taken=()):
    """Display names of n formal variables: the stem alone for one, else
    stem1..stemn, with the stem repeated (t, tt, ...) until no name is one
    of taken, a chart's own names, so that the display reads back."""
    names = (stem,) if n == 1 else tuple(f"{stem}{i + 1}" for i in range(n))
    if set(names).isdisjoint(taken):
        return names
    return indexed_names(stem + stem[0], n, taken)


def _as_fraction(c):
    # int first: isinstance against Fraction, an ABC, is slow on an int
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, Fraction):
        return c
    raise TypeError(f"expected int or Fraction, got {type(c).__name__}")


def _check_vars(vars):
    """vars as a tuple, rejecting repeated names."""
    vars = tuple(vars)
    if len(set(vars)) != len(vars):
        raise ValueError("duplicate variable names")
    return vars


# ---------------------------------------------------------------------------
# packed monomials

FIELD_BITS = 16
FIELD_MASK = (1 << FIELD_BITS) - 1
DEGREE_LIMIT = 1 << (FIELD_BITS - 1)


@functools.cache
def mono_layout(n):
    """(shifts, top, guard) of the packed form over n variables: variable i
    sits in the field at bit shifts[i], the total degree at bit top, and
    guard has the highest bit of every variable field set (a borrow in
    a difference of two packed monomials shows there).  One cached tuple
    per variable count."""
    shifts = tuple(FIELD_BITS * (n - 1 - i) for i in range(n))
    guard = sum(1 << (s + FIELD_BITS - 1) for s in shifts)
    return shifts, FIELD_BITS * n, guard


def degree_check(k, top):
    """Raise ValueError unless the packed monomial k (degree field at bit
    top) has total degree below DEGREE_LIMIT."""
    if k >> top >= DEGREE_LIMIT:
        raise ValueError(
            f"total degree {k >> top} exceeds the bound {DEGREE_LIMIT - 1}"
        )


def power_check(p, e, ngens=0):
    """Raise ValueError, before p ** e is computed, unless e is an int >= 0
    and the degree bound holds e * degree, which is exact when none of the
    last ngens variables (a chart's generators) occurs in p."""
    if type(e) is not int or e < 0:
        raise ValueError("exponent must be a non-negative integer")
    low = (1 << FIELD_BITS * ngens) - 1  # the generators' fields
    if e * p.degree() >= DEGREE_LIMIT and not any(k & low for k in p.nums):
        raise ValueError(f"total degree {e * p.degree()} exceeds the bound {DEGREE_LIMIT - 1}")


def mono_pack(m, n):
    """Packed form of the exponent tuple m of n entries, each >= 0; the
    caller checks the degree bound."""
    shifts, top, _ = mono_layout(n)
    k = sum(m) << top
    for e, s in zip(m, shifts):
        k |= e << s
    return k


# ---------------------------------------------------------------------------
# the work meter

WORK_BUDGET = 10 ** 8
PAIR_UNITS = 100
GCD_UNITS = 4  # a gcd takes 7-11 ns per pair of limbs: 2-3 ns a unit, as products
_left = None  # units left in the running metered call; None outside one


def metered(fn, *args):
    """fn(*args) under a fresh budget, or the running one inside another."""
    global _left
    if _left is not None:
        return fn(*args)
    _left = WORK_BUDGET
    try:
        return fn(*args)
    finally:
        _left = None


def charge(units):
    """Take units from the running budget, which the caller checks exists."""
    global _left
    _left -= units
    if _left < 0:
        raise ValueError(f"work budget of {WORK_BUDGET} units exceeded")


def _limbs(nums):
    """The numerators' 64-bit limbs: one per term plus one per 64 bits."""
    return len(nums) + sum(map(int.bit_length, nums.values())) // 64


def add_product(out, a, b, f, top):
    """out += f * a * b on integer numerators keyed by packed monomials (the
    degree field at bit top), after checking the degree bound of the largest
    product key; a and b are nonempty.  The one loop that multiplies two
    numerator dicts: Poly products, chart reduction, derivations and sums of
    products all end here.  A sum that cancels stays in out as 0.  In a
    metered call it charges first (module docstring)."""
    degree_check(max(a) + max(b), top)
    if _left is not None:
        charge(PAIR_UNITS * len(a) * len(b) + _limbs(a) * _limbs(b))
    if len(a) < len(b):
        a, b = b, a  # the longer dict in the inner loop
    get = out.get
    for m2, c2 in b.items():
        c2 *= f
        for m1, c1 in a.items():
            m = m1 + m2
            out[m] = get(m, 0) + c1 * c2


def pow_by_squaring(one, base, e):
    """base ** e for an integer e >= 0 by binary exponentiation, starting
    from the unit ``one``; shared by Poly and RingElem."""
    out = one
    while e:
        if e & 1:
            out = out * base
        e >>= 1
        if e:
            base = base * base
    return out


# ---------------------------------------------------------------------------
# polynomials

class Poly:
    """Polynomial in the declared variables: ``nums`` (dict of packed
    monomial -> nonzero int) over the positive content denominator ``den``,
    in the canonical form described in the module docstring.

    Instances are treated as immutable; all operations return new objects.
    Mixing polynomials over different variable lists raises ValueError.  The
    constructor checks caller input; results of arithmetic are built by the
    trusted ``_make``.
    """

    __slots__ = ("vars", "nums", "den", "_terms")

    def __init__(self, vars, terms=()):
        vars = _check_vars(vars)
        n = len(vars)
        top = mono_layout(n)[1]
        clean = {}
        items = terms.items() if hasattr(terms, "items") else terms  # a mapping or pairs
        for m, c in items:
            m = mi_check(m, n)
            c = _as_fraction(c)
            if c:
                k = mono_pack(m, n)
                degree_check(k, top)
                acc = clean.get(k)
                new = c if acc is None else acc + c
                if new:
                    clean[k] = new
                elif acc is not None:
                    del clean[k]
        # The lcm of reduced denominators is coprime to the numerators'
        # content, so this is already canonical.
        den = math.lcm(*(c.denominator for c in clean.values()))
        _set_vars(self, vars)
        _set_nums(self, {m: c.numerator * (den // c.denominator) for m, c in clean.items()})
        _set_den(self, den)

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    # -- constructors

    @classmethod
    def zero(cls, vars):
        return cls(vars)

    @classmethod
    def const(cls, vars, c):
        vars = _check_vars(vars)
        c = _as_fraction(c)
        if not c:
            return _make(vars, {})
        return _make(vars, {0: c.numerator}, c.denominator)

    @classmethod
    def one(cls, vars):
        return cls.const(vars, 1)

    @classmethod
    def variable(cls, vars, name):
        vars = _check_vars(vars)
        if name not in vars:
            raise ValueError(f"unknown variable {name!r}")
        shifts, top, _ = mono_layout(len(vars))
        return _make(vars, {(1 << top) | (1 << shifts[vars.index(name)]): 1})

    # -- queries

    @property
    def terms(self):
        """Read-only view multi-index -> Fraction, built on first use."""
        try:
            return self._terms
        except AttributeError:
            shifts, d = mono_layout(len(self.vars))[0], self.den
            view = MappingProxyType({tuple([(k >> s) & FIELD_MASK for s in shifts]):
                                     Fraction(c, d) for k, c in self.nums.items()})
            _set_terms(self, view)
            return view

    def is_zero(self):
        return not self.nums

    def coeff(self, m):
        """Coefficient at the exponent tuple m; 0 for any tuple that is not
        a monomial of this polynomial, including malformed ones."""
        m = tuple(m)
        n = len(self.vars)
        if len(m) != n or not all(0 <= e < DEGREE_LIMIT for e in m):
            return Fraction(0)
        return Fraction(self.nums.get(mono_pack(m, n), 0), self.den)

    def degree(self):
        """Total degree; the zero polynomial has degree -1."""
        if not self.nums:
            return -1
        return max(self.nums) >> mono_layout(len(self.vars))[1]

    def sorted_terms(self, reverse=True):
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=reverse)

    def support_vars(self):
        """Indices of variables that actually occur."""
        used = 0
        for k in self.nums:
            used |= k
        shifts = mono_layout(len(self.vars))[0]
        return {i for i, s in enumerate(shifts) if (used >> s) & FIELD_MASK}

    # -- arithmetic

    def _check(self, other):
        if self.vars is not other.vars and self.vars != other.vars:
            raise ValueError(f"variable lists differ: {self.vars} vs {other.vars}")

    def _coerce(self, other):
        """other as a Poly over the same variables, or None."""
        if isinstance(other, Poly):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.vars, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _combine(self, other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.vars, {m: -c for m, c in self.nums.items()}, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _combine(self, other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):  # own class first, as in __eq__
            if isinstance(other, (int, Fraction)):
                return self._scale(other)
            return NotImplemented
        self._check(other)
        if not self.nums or not other.nums:
            return _make(self.vars, {})
        out = {}
        add_product(out, self.nums, other.nums, 1, FIELD_BITS * len(self.vars))
        if 0 in out.values():
            out = {m: c for m, c in out.items() if c}
        if _left is not None and other.den != 1:  # the denominators' limbs
            charge((self.den.bit_length() // 64 + 1) * (other.den.bit_length() // 64 + 1))
        return _make(self.vars, out, self.den * other.den)

    __rmul__ = __mul__

    def _scale(self, c):
        if not c:
            return _make(self.vars, {})
        if isinstance(c, int):
            n, d = c, 1
        else:
            n, d = c.numerator, c.denominator
        if n == 1:  # 1/d keeps the numerator (the shared-dict rule of _make)
            return _make(self.vars, self.nums, self.den * d)
        return _make(self.vars, {m: v * n for m, v in self.nums.items()}, self.den * d)

    def __pow__(self, e):
        """self ** e, metered, after power_check."""
        power_check(self, e)
        return metered(pow_by_squaring, Poly.one(self.vars), self, e)

    def extended(self, newvars):
        """The same polynomial viewed over a longer variable list; the old
        list must be a prefix of the new one."""
        newvars = tuple(newvars)
        if newvars[: len(self.vars)] != self.vars:
            raise ValueError("old variable list must be a prefix of the new one")
        # the new variables take the low fields: shifting moves every old
        # field, the degree field included, up to its place in the new layout
        shift = FIELD_BITS * (len(newvars) - len(self.vars))
        return _make(newvars, {k << shift: c for k, c in self.nums.items()}, self.den)

    # -- equality / display

    def __eq__(self, other):
        if not isinstance(other, Poly):  # own class first: Fraction is an ABC, ~10x slower
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly.const(self.vars, other)
        return self.vars == other.vars and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.vars, self.den, frozenset(self.nums.items())))

    def __str__(self):
        if not self.nums:
            return "0"
        pieces = []
        for i, (m, c) in enumerate(self.sorted_terms()):
            mono = mono_str(self.vars, m)
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

    def __repr__(self):
        return f"Poly({str(self)!r})"


_new_poly = object.__new__
_set_vars = Poly.vars.__set__
_set_nums = Poly.nums.__set__
_set_den = Poly.den.__set__
_set_terms = Poly._terms.__set__


def _make(vars, nums, den=1):
    """Trusted constructor for results whose invariants hold by construction:
    every key of nums is a packed monomial over vars within the degree
    bound, every value a nonzero int, and den > 0.  Divides out
    gcd(den, *nums) in one call so the result is canonical.
    The result may keep ``nums`` itself (Poly._scale by 1/d hands over its
    operand's dict), so two polynomials can share one dict: no code writes
    into a Poly's dict, and every add_product target is a fresh one.
    Package-private: charts.reduce uses it too."""
    if den != 1:
        if not nums:
            den = 1
        else:
            if _left is not None:  # the content gcd (module docstring)
                charge(GCD_UNITS * _limbs(nums) * (den.bit_length() // 64 + 1))
            g = math.gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {m: c // g for m, c in nums.items()}
    p = _new_poly(Poly)
    _set_vars(p, vars)
    _set_nums(p, nums)
    _set_den(p, den)
    return p


def _combine(p, q, sign):
    """p + sign * q, sign being 1 or -1, over the common denominator."""
    a, da = p.nums, p.den
    b, db = q.nums, q.den
    if da == db:
        out = dict(a)
        fb = sign
        den = da
    else:
        g = math.gcd(da, db)
        fa = db // g
        fb = sign * (da // g)
        den = da * fa
        out = {m: c * fa for m, c in a.items()}
    get = out.get
    for m, c in b.items():
        v = get(m, 0) + c * fb
        if v:
            out[m] = v
        else:
            del out[m]
    return _make(p.vars, out, den)


def poly_div_exact(num, den):
    """Exact division num / den by greedy leading-term elimination.

    Returns the quotient Poly, or None when den does not divide num in the
    free polynomial ring.  Correct for exact divisors because graded-lex
    leading terms are multiplicative.  The elimination runs on the integer
    numerators: the remainder is ints over a running scale, which grows only
    when the leading numerator of den does not divide the remainder's.  The
    leading monomial of den divides the remainder's when their packed
    difference is >= 0 with no guard bit set (no field borrowed).
    """
    num._check(den)
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    guard = mono_layout(len(num.vars))[2]
    dnums = den.nums
    dm = max(dnums)
    dc = dnums[dm]
    rem = dict(num.nums)
    scale = 1
    steps = []  # (quotient monomial, numerator, scale it is over)
    meter = _left is not None
    while rem:
        if meter:  # a step scans the remainder and subtracts the divisor
            charge(len(rem) + PAIR_UNITS * len(dnums))
        m = max(rem)
        qm = m - dm
        if qm < 0 or qm & guard:
            return None
        c = rem[m]
        g = math.gcd(c, dc)
        k, mult = c // g, dc // g
        if mult < 0:
            k, mult = -k, -mult
        if mult != 1:
            if meter:  # as a product of the remainder by the constant mult
                charge(PAIR_UNITS * len(rem) + _limbs(rem) * (1 + mult.bit_length() // 64))
            rem = {mm: cc * mult for mm, cc in rem.items()}
            scale *= mult
        steps.append((qm, k, scale))
        get = rem.get
        for m2, c2 in dnums.items():
            mm = qm + m2
            v = get(mm, 0) - k * c2
            if v:
                rem[mm] = v
            else:
                del rem[mm]
    quot = {qm: k * (scale // s) * den.den for qm, k, s in steps}
    return _make(num.vars, quot, scale * num.den)
