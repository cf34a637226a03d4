"""Exact sparse Laurent polynomial arithmetic.

Polynomials live in Z[x_1^{±1}, ..., x_m^{±1}] for a fixed ambient variable
count m.  Terms are stored sparsely as a map from integer exponent vectors
(tuples of length m) to nonzero arbitrary-precision integer coefficients; the
zero polynomial has an empty term map.  Everything here is exact integer
arithmetic; floating point is never touched.

Instances are treated as immutable values: no public operation mutates an
existing polynomial, and equality/hashing go through a canonical sorted term
key, so polynomials can live in sets and dict keys.

Only the public constructor validates its input (exponent lengths, integer
exponents and coefficients, merging and dropping zeros); it reads integers
through operator.index, so a float is a TypeError, never truncated.  The
ring operations build a fresh term dict that is clean by construction and
hand it to the result unchecked, through LaurentPoly._trusted; the integers
they take (a factor, offsets, indices, a power) are read through
operator.index too.

Two-variable log-concavity scans, which conj1-a2's chart tables run,
unpack each exponent as (a, b) and build their neighbours' keys directly
instead of through the general loop's tuple arithmetic.  Results and scan
order are the general loop's.

ExponentCodec packs a ring's exponent vectors into ints, for claims that
form many products of a few polynomials and keep them as term dicts
{key: coefficient}.  The layout is degree first: with W = 2**s, the key of
(e_0, ..., e_{m-1}) is  d W^(m-1) + e_0 W^(m-2) + ... + e_{m-2},  d the total
degree, and e_{m-1} = d - (e_0 + ... + e_{m-2}).  Each lower digit has
magnitude at most the codec's bound, and W/2 is at least the bound plus 2
(a key's digits are read in [-W/2, W/2)), so:
  - keys add when monomials multiply, and a product whose digits stay within
    the bound decodes to the true exponent;
  - int order is graded-lex order, (d, e_0, ..., e_{m-2}) compared as a
    tuple, so the graded-lex lead of a term dict is max() of its keys;
  - the neighbours a scan reads, two steps down any axis, never alias
    another key.
pack raises on a digit beyond the bound, so no key aliases silently.  A
claim sizes the bound from its own inputs (ExponentCodec.for_products):
deg times the largest |exponent| among the polynomials it multiplies bounds
every digit of every product of at most deg of them.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import add, index, sub
from typing import Dict, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

Exponent = tuple  # tuple[int, ...], one entry per ambient variable


class DimensionMismatchError(ValueError):
    """Operands live in ambient rings with different variable counts."""


class InexactDivisionError(ArithmeticError):
    """Division left a nonzero remainder.

    The remainder is carried as a witness.  When this fires while mutating a
    seed it means a supposed exchange relation did not divide exactly, which
    is a fatal inconsistency; callers must not swallow it.
    """

    def __init__(self, message: str, remainder: "LaurentPoly") -> None:
        super().__init__(message)
        self.remainder = remainder


class LaurentPoly:
    """A sparse Laurent polynomial with exact integer coefficients."""

    __slots__ = ("num_vars", "terms", "_key")

    def __init__(self, num_vars: int, terms: Optional[Mapping[Exponent, int]] = None):
        num_vars = index(num_vars)
        if num_vars < 0:
            raise ValueError("num_vars must be nonnegative")
        clean: dict = {}
        if terms:
            pairs = terms.items() if isinstance(terms, Mapping) else terms
            for exp, coeff in pairs:
                exp = tuple(map(index, exp))
                if len(exp) != num_vars:
                    raise DimensionMismatchError(
                        f"exponent {exp!r} has length {len(exp)}, expected {num_vars}"
                    )
                coeff = index(coeff)
                if coeff:
                    clean[exp] = clean.get(exp, 0) + coeff
                    if not clean[exp]:
                        del clean[exp]
        self.num_vars = num_vars
        self.terms = clean
        self._key = None

    @classmethod
    def _trusted(cls, num_vars: int, terms: dict) -> "LaurentPoly":
        """Wrap a term dict without copying or checking it.

        The caller gives up the dict, which must already be clean: every key
        a tuple of length num_vars, every value a nonzero int.
        """
        p = object.__new__(cls)
        p.num_vars = num_vars
        p.terms = terms
        p._key = None
        return p

    # ---- constructors ----

    @classmethod
    def zero(cls, num_vars: int) -> "LaurentPoly":
        return cls(num_vars)

    @classmethod
    def const(cls, num_vars: int, value: int) -> "LaurentPoly":
        return cls(num_vars, {(0,) * num_vars: value})

    @classmethod
    def variable(cls, num_vars: int, index: int) -> "LaurentPoly":
        """The single variable x_{index} (0-based index)."""
        if not 0 <= index < num_vars:
            raise IndexError(f"variable index {index} out of range for {num_vars} vars")
        exp = [0] * num_vars
        exp[index] = 1
        return cls(num_vars, {tuple(exp): 1})

    @classmethod
    def monomial(cls, num_vars: int, exponents: Sequence[int], coeff: int = 1) -> "LaurentPoly":
        return cls(num_vars, {tuple(exponents): coeff})

    # ---- canonical form / equality ----

    def key(self) -> tuple:
        """Canonical hashable form: (num_vars, sorted term items)."""
        if self._key is None:
            self._key = (self.num_vars, tuple(sorted(self.terms.items())))
        return self._key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.num_vars == other.num_vars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.key())

    def __bool__(self) -> bool:
        return bool(self.terms)

    # ---- ring operations ----

    def _check_dims(self, other: "LaurentPoly") -> None:
        if self.num_vars != other.num_vars:
            raise DimensionMismatchError(
                f"cannot combine polynomials in {self.num_vars} and {other.num_vars} variables"
            )

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_dims(other)
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            acc = out.get(exp, 0) + coeff
            if acc:
                out[exp] = acc
            else:
                out.pop(exp, None)
        return LaurentPoly._trusted(self.num_vars, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._trusted(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_dims(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(map(add, e1, e2))
                acc = out.get(exp, 0) + c1 * c2
                if acc:
                    out[exp] = acc
                else:
                    del out[exp]
        return LaurentPoly._trusted(self.num_vars, out)

    def scale(self, factor: int) -> "LaurentPoly":
        factor = index(factor)  # an int, or the result would not be exact
        if not factor:
            return LaurentPoly.zero(self.num_vars)
        return LaurentPoly._trusted(self.num_vars, {e: c * factor for e, c in self.terms.items()})

    def shift(self, offsets: Sequence[int]) -> "LaurentPoly":
        """Multiply by the monomial x^offsets (exact, always invertible)."""
        if len(offsets) != self.num_vars:
            raise DimensionMismatchError("offset length must equal num_vars")
        off = tuple(map(index, offsets))
        return LaurentPoly._trusted(
            self.num_vars, {tuple(map(add, e, off)): c for e, c in self.terms.items()}
        )

    def __pow__(self, exponent: int) -> "LaurentPoly":
        exponent = index(exponent)
        if exponent < 0:
            raise ValueError("negative powers are not defined")
        if exponent == 0:
            return LaurentPoly.const(self.num_vars, 1)
        result = None  # the first factor is copied in, so no product with 1 is formed
        base = self
        k = exponent
        while True:
            if k & 1:
                if result is None:
                    result = LaurentPoly._trusted(self.num_vars, dict(base.terms))
                else:
                    result = result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def div_exact(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact division in the Laurent ring.

        Returns q with q * divisor == self, or raises InexactDivisionError
        carrying the nonzero remainder reached.  Uses long division by lex
        leading terms after shifting both operands into the polynomial range;
        lex on nonnegative exponents is a well-order, so this terminates.

        Exponents are stored negated, so the lex-largest pending exponent is
        the least entry of a heap.  A step cancels its lead and adds only
        exponents below it, so a lead never returns; an exponent the heap
        holds that has since cancelled is passed over when popped.
        """
        self._check_dims(divisor)
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        m = self.num_vars
        if not self:
            return LaurentPoly.zero(m)
        smin = self.min_degrees()
        dmin = divisor.min_degrees()
        rem = {tuple(map(sub, smin, e)): c for e, c in self.terms.items()}
        q_terms = {tuple(map(sub, dmin, e)): c for e, c in divisor.terms.items()}
        q_lead = min(q_terms)
        q_lc = q_terms[q_lead]
        pending = list(rem)
        heapify(pending)
        quotient: dict = {}
        while rem:
            lead = heappop(pending)
            if lead not in rem:
                continue
            texp = tuple(map(sub, lead, q_lead))
            coeff, sub_rem = divmod(rem[lead], q_lc)
            if sub_rem or any(e > 0 for e in texp):
                witness = LaurentPoly(m, {tuple(map(sub, smin, e)): c for e, c in rem.items()})
                raise InexactDivisionError("division is not exact", witness)
            quotient[texp] = coeff
            for e, c in q_terms.items():
                ne = tuple(map(add, texp, e))
                old = rem.get(ne)
                if old is None:
                    rem[ne] = -coeff * c
                    heappush(pending, ne)
                elif old == coeff * c:
                    del rem[ne]
                else:
                    rem[ne] = old - coeff * c
        offset = tuple(map(sub, smin, dmin))
        return LaurentPoly._trusted(
            m, {tuple(map(sub, offset, e)): c for e, c in quotient.items()}
        )

    # ---- support queries ----

    def min_degrees(self) -> tuple:
        """Per-variable minimum exponent over the support; errors on zero."""
        if not self.terms:
            raise ValueError("the zero polynomial has no degree data")
        return tuple(map(min, zip(*self.terms)))

    def max_degrees(self) -> tuple:
        """Per-variable maximum exponent over the support; errors on zero."""
        if not self.terms:
            raise ValueError("the zero polynomial has no degree data")
        return tuple(map(max, zip(*self.terms)))

    def substitute_ones(self, indices: Iterable[int]) -> "LaurentPoly":
        """Set the given variables to 1, merging coefficients.

        The result lives in the remaining variables (ambient dimension
        shrinks by len(indices)); their relative order is preserved.
        """
        drop = set(map(index, indices))
        for j in drop:
            if not 0 <= j < self.num_vars:
                raise IndexError(f"variable index {j} out of range")
        keep = [j for j in range(self.num_vars) if j not in drop]
        out: dict = {}
        for e, c in self.terms.items():
            ne = tuple(e[j] for j in keep)
            acc = out.get(ne, 0) + c
            if acc:
                out[ne] = acc
            else:
                del out[ne]
        return LaurentPoly._trusted(len(keep), out)

    def coefficients(self) -> Iterator[int]:
        return iter(self.terms.values())

    # ---- display ----

    def __repr__(self) -> str:
        return f"LaurentPoly({self.num_vars}, {dict(sorted(self.terms.items()))!r})"


class DenominatorForm(NamedTuple):
    """A Laurent polynomial split as numerator * prod x_j^{-d_j}.

    The numerator has nonnegative exponents everywhere and, in each of the
    first n variables, some term with exponent 0 (so it is not divisible by
    any of them).  d_vector has one entry per exchangeable variable.
    """

    numerator: LaurentPoly
    d_vector: tuple


class LogConcavityResult(NamedTuple):
    ok: bool
    axis: Optional[int]  # 0-based axis of the first violated inequality
    point: Optional[tuple]  # lattice point where it fails

    def __bool__(self) -> bool:
        # a three-field tuple is always truthy; `assert is_log_concave(p)` relies on this
        return self.ok


def normalize_denominator(p: LaurentPoly, n: int) -> DenominatorForm:
    """Factor p as numerator * prod_{j<n} x_j^{-d_j}.

    Only the first n variables participate; all remaining variables must
    already appear with nonnegative exponents.  Errors on the zero
    polynomial.
    """
    if not p:
        raise ValueError("cannot normalize the zero polynomial")
    if not 0 <= n <= p.num_vars:
        raise ValueError(f"n={n} out of range for {p.num_vars} variables")
    mins = p.min_degrees()
    for j in range(n, p.num_vars):
        if mins[j] < 0:
            raise ValueError(
                f"variable {j} is outside the exchangeable range but has exponent {mins[j]}"
            )
    d = tuple(-mins[j] for j in range(n))
    offsets = list(d) + [0] * (p.num_vars - n)
    return DenominatorForm(p.shift(offsets), d)


def is_log_concave(p: LaurentPoly) -> LogConcavityResult:
    """Axis-aligned log-concavity over the support's bounding box.

    Requires a nonzero polynomial with nonnegative coefficients.  For every
    axis j and every lattice point i of the bounding box, checks
    a_i^2 >= a_{i - e_j} * a_{i + e_j}, with absent coefficients read as 0.
    Returns the first violated (axis, point) in a deterministic scan order:
    axes ascending, then lines sorted by their remaining coordinates, then
    positions ascending.

    With positive coefficients the right side is nonzero only when both
    neighbours are terms, so a point can fail only one step above a term
    that has another term two steps above it on the same axis.  One pass
    over the terms per axis checks exactly those points, reading the middle
    coefficient as 0 when it is absent, and keeps the least failing
    (remaining coordinates, position): the scan order above is unchanged.
    """
    if not p:
        raise ValueError("log-concavity is undefined for the zero polynomial")
    terms = p.terms
    for e, c in terms.items():
        if c < 0:
            raise ValueError(f"negative coefficient {c} at {e}")
    get = terms.get
    if p.num_vars == 2:  # the general loop below with unpacked keys
        first = None  # least failing (remaining coordinate, position), as below
        for (a, b), right in terms.items():
            left = get((a - 2, b))
            if left is not None:
                mid = get((a - 1, b), 0)
                if mid * mid < left * right and (first is None or (b, a - 1) < first):
                    first = (b, a - 1)
        if first is not None:
            return LogConcavityResult(False, 0, (first[1], first[0]))
        for (a, b), right in terms.items():
            left = get((a, b - 2))
            if left is not None:
                mid = get((a, b - 1), 0)
                if mid * mid < left * right and (first is None or (a, b - 1) < first):
                    first = (a, b - 1)
        if first is not None:
            return LogConcavityResult(False, 1, first)
        return LogConcavityResult(True, None, None)
    for axis in range(p.num_vars):
        first = None  # least failing (remaining coordinates, position)
        for e, right in terms.items():
            head, i, tail = e[:axis], e[axis], e[axis + 1 :]
            left = get(head + (i - 2,) + tail)
            if left is None:
                continue
            mid = get(head + (i - 1,) + tail, 0)
            if mid * mid < left * right:
                fail = (head + tail, i - 1)
                if first is None or fail < first:
                    first = fail
        if first is not None:
            rest, i = first
            return LogConcavityResult(False, axis, rest[:axis] + (i,) + rest[axis:])
    return LogConcavityResult(True, None, None)


class ExponentCodec:
    """Exponent vectors of one ring packed into ints, degree first.

    See the module docstring for the layout.  Term dicts on these keys are
    plain {key: coefficient} dicts with nonzero coefficients: pack makes
    them, mul multiplies them, scan checks their log-concavity and unpack
    turns one back into a LaurentPoly.
    """

    __slots__ = ("num_vars", "bound", "_shift", "_half", "_steps")

    def __init__(self, num_vars: int, bound: int) -> None:
        num_vars, bound = index(num_vars), index(bound)
        if num_vars < 1:
            raise ValueError("an exponent codec needs at least one variable")
        if bound < 0:
            raise ValueError("digit bound must be nonnegative")
        self.num_vars, self.bound = num_vars, bound
        self._shift = shift = (bound + 1).bit_length() + 1
        self._half = 1 << shift - 1  # the least power of two >= bound + 2
        top = 1 << shift * (num_vars - 1)
        # one step up axis j raises the degree and, below the last axis, e_j
        self._steps = tuple(top + (1 << shift * (num_vars - 2 - j)) for j in range(num_vars - 1))
        self._steps += (top,)

    @classmethod
    def for_products(cls, factors: Sequence[LaurentPoly], deg: int) -> "ExponentCodec":
        """The codec for every product of at most deg of the factors (a
        nonempty sequence in one ring): its bound is deg times their largest
        |exponent|."""
        if index(deg) < 0:
            raise ValueError("degree bound must be nonnegative")
        width = max((abs(e) for p in factors for exp in p.terms for e in exp), default=0)
        return cls(factors[0].num_vars, deg * width)

    def encode(self, exp: Exponent) -> int:
        """The key of one exponent vector; ValueError on a digit beyond the bound."""
        if len(exp) != self.num_vars:
            raise DimensionMismatchError(f"exponent {exp!r} has length {len(exp)}")
        bound, shift = self.bound, self._shift
        key = sum(exp)
        for e in exp[:-1]:
            if e > bound or e < -bound:
                raise ValueError(f"exponent {exp!r} has a digit beyond the bound {bound}")
            key = (key << shift) + e
        return key

    def decode(self, key: int) -> Exponent:
        """The exponent vector of a key whose digits are within the bound."""
        shift, half = self._shift, self._half
        mask = half + half - 1
        digits = []
        for _ in range(self.num_vars - 1):
            e = ((key + half) & mask) - half  # the signed low digit
            digits.append(e)
            key = (key - e) >> shift
        digits.reverse()
        digits.append(key - sum(digits))
        return tuple(digits)

    def pack(self, p: LaurentPoly) -> Dict[int, int]:
        """p's terms on keys; ValueError on a digit beyond the bound, and
        DimensionMismatchError on an exponent of another length."""
        encode = self.encode
        return {encode(e): c for e, c in p.terms.items()}

    def unpack(self, terms: Mapping[int, int]) -> LaurentPoly:
        decode = self.decode
        return LaurentPoly._trusted(self.num_vars, {decode(k): c for k, c in terms.items()})

    def mul(self, a: Mapping[int, int], b: Mapping[int, int]) -> Dict[int, int]:
        """The product of two packed term dicts: keys add.  The product's
        digits must stay within the bound, as for_products sizes it."""
        out: dict = {}
        get = out.get
        pairs = b.items()
        for k1, c1 in a.items():
            for k2, c2 in pairs:
                k = k1 + k2
                acc = get(k, 0) + c1 * c2
                if acc:
                    out[k] = acc
                else:
                    del out[k]
        return out

    def scan(self, terms: Mapping[int, int]) -> LogConcavityResult:
        """is_log_concave(self.unpack(terms)), on the keys.

        The coefficients must be positive; the caller checks their signs.
        Each axis is one fixed step between keys, so a term's neighbours
        below it are two int lookups.  Only failing points are decoded, and
        the least (remaining coordinates, position) among them is returned:
        is_log_concave's (ok, axis, point) exactly.
        """
        if not terms:
            raise ValueError("log-concavity is undefined for the zero polynomial")
        get = terms.get
        items = terms.items()
        for axis, step in enumerate(self._steps):
            two = step + step
            fails = []
            for k, right in items:
                left = get(k - two)
                if left is not None:
                    mid = get(k - step, 0)
                    if mid * mid < left * right:
                        fails.append(k - step)
            if fails:
                point = min(
                    map(self.decode, fails), key=lambda e: (e[:axis] + e[axis + 1 :], e[axis])
                )
                return LogConcavityResult(False, axis, point)
        return LogConcavityResult(True, None, None)


def poly_to_json(p: LaurentPoly) -> dict:
    """Canonical JSON form: terms sorted lexicographically by exponent."""
    return {
        "num_vars": p.num_vars,
        "terms": [
            {"exp": list(e), "coeff": str(c)} for e, c in sorted(p.terms.items())
        ],
    }
