"""Exact multivariate polynomial and differential form arithmetic.

Everything downstream works over the rationals.  Polynomials are sparse
dicts mapping exponent tuples to nonzero rationals, each stored as _exact
leaves it: an int when integral, else a Fraction.  Exponents may be any
integers: the Cech local model inverts variables, and its traces carry
negative exponents.  Nothing else produces them, and the Groebner engine,
the residues and the Koszul route reject them through one gate,
_require_ordinary, with LaurentError.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence


class PolyParseError(ValueError):
    """Syntax or name error while parsing a polynomial string.

    The offset of the offending character is stored in ``position``.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class LaurentError(ValueError):
    """A negative exponent reached an entry point that takes ordinary polynomials."""


def _require_ordinary(p: Poly, entry: str) -> None:
    """The one Laurent gate: LaurentError when p has a negative exponent,
    naming the entry point ``entry`` that takes ordinary polynomials only."""
    if any(e < 0 for mono in p.terms for e in mono):
        raise LaurentError(f"negative exponent in {p}: {entry} takes ordinary polynomials")


Monomial = tuple[int, ...]


def _exact(c):
    """A coefficient in its one stored form: an int when it is integral, else
    a Fraction.  Poly, the forms, the chains and the Groebner vectors all
    store it; anything but an int or a Fraction (a float too) is a TypeError."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"expected an exact rational, got {type(c).__name__}")


def degrevlex_key(mono: Monomial):
    """Sort key under which larger means bigger in degrevlex order."""
    return (sum(mono), tuple(-e for e in reversed(mono)))


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """The product x^a x^b, as an exponent tuple."""
    return tuple(map(add, a, b))


class Poly:
    """Immutable sparse polynomial over the rationals."""

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, variables: Sequence[str],
                 terms: Mapping[Monomial, int | Fraction] | None = None):
        object.__setattr__(self, "vars", tuple(variables))
        clean: dict[Monomial, int | Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = _exact(coeff)
                if not coeff:
                    continue
                mono = tuple(mono)
                if len(mono) != len(self.vars):
                    raise ValueError("exponent tuple length does not match variable count")
                clean[mono] = coeff
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Poly":
        return cls(variables, {})

    @classmethod
    def const(cls, variables: Sequence[str], c) -> "Poly":
        return cls(variables, {(0,) * len(variables): c})

    @classmethod
    def one(cls, variables: Sequence[str]) -> "Poly":
        return cls.const(variables, 1)

    @classmethod
    def variable(cls, variables: Sequence[str], i: int) -> "Poly":
        mono = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls(variables, {mono: 1})

    @classmethod
    def monomial(cls, variables: Sequence[str], mono: Monomial, coeff=1) -> "Poly":
        return cls(variables, {tuple(mono): coeff})

    # -- ring structure ----------------------------------------------------

    def __add__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.const(self.vars, other)
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            terms[mono] = terms.get(mono, 0) + c
        return Poly(self.vars, terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(self.vars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.const(self.vars, other)
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            c = _exact(other)
            return Poly(self.vars, {m: c * v for m, v in self.terms.items()})
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")
        terms: dict[Monomial, int | Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                terms[m] = terms.get(m, 0) + c1 * c2
        return Poly(self.vars, terms)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.vars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash",
                               hash((self.vars, frozenset(self.terms.items()))))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> int | Fraction:
        return self.terms.get((0,) * len(self.vars), 0)

    def coefficient(self, mono: Monomial) -> int | Fraction:
        return self.terms.get(tuple(mono), 0)

    def sorted_terms(self) -> list[tuple[Monomial, int | Fraction]]:
        return sorted(self.terms.items(), key=lambda t: degrevlex_key(t[0]), reverse=True)

    def __iter__(self) -> Iterator[tuple[Monomial, int | Fraction]]:
        return iter(self.sorted_terms())

    # -- calculus ----------------------------------------------------------

    def partial(self, i: int) -> "Poly":
        terms: dict[Monomial, int | Fraction] = {}
        for mono, c in self.terms.items():
            e = mono[i]
            if e == 0:
                continue
            m = list(mono)
            m[i] = e - 1
            m = tuple(m)
            terms[m] = terms.get(m, 0) + c * e
        return Poly(self.vars, terms)

    # -- printing ----------------------------------------------------------

    def _term_str(self, mono: Monomial, coeff: int | Fraction) -> str:
        factors = []
        for name, e in zip(self.vars, mono):
            if e == 0:
                continue
            factors.append(name if e == 1 else f"{name}^{e}")
        mag = abs(coeff)
        if not factors:
            return str(mag)
        body = "*".join(factors)
        if mag == 1:
            return body
        return f"{mag}*{body}"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for i, (mono, coeff) in enumerate(self.sorted_terms()):
            piece = self._term_str(mono, coeff)
            if i == 0:
                parts.append(piece if coeff > 0 else "-" + piece)
            else:
                parts.append(("+ " if coeff > 0 else "- ") + piece)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({str(self)!r}, vars={self.vars})"


# -- parser ----------------------------------------------------------------
#
# expr   := '-'? term (('+'|'-') term)*
# term   := factor ('*' factor)*
# factor := rational | var ('^' uint)? | '(' expr ')'
#
# The optional leading minus is a strict superset of the bare grammar; it
# lets canonical printed output ("-x^2 + y") round-trip.

def _name_end(text: str, pos: int) -> int:
    """End of the variable name that starts at text[pos], or pos when none
    does.  The one name rule, for the parser and cli.infer_vars: a letter
    or "_", then letters, digits and "_" (str.isalpha, str.isalnum)."""
    if pos < len(text) and (text[pos].isalpha() or text[pos] == "_"):
        pos += 1
        while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
            pos += 1
    return pos


class _Parser:
    def __init__(self, text: str, variables: Sequence[str]):
        self.text = text
        self.pos = 0
        self.vars = tuple(variables)
        self.index = {v: i for i, v in enumerate(self.vars)}

    def error(self, message: str):
        raise PolyParseError(message, self.pos)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self) -> Poly:
        p = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        return p

    def expr(self) -> Poly:
        self.skip_ws()
        negate = False
        if self.peek() == "-":
            save = self.pos
            self.pos += 1
            self.skip_ws()
            if self.peek().isdigit():
                # a signed rational literal; let factor() consume the sign
                self.pos = save
            else:
                negate = True
        p = self.term()
        if negate:
            p = -p
        while True:
            self.skip_ws()
            op = self.peek()
            if op not in ("+", "-"):
                return p
            self.pos += 1
            q = self.term()
            p = p + q if op == "+" else p - q

    def term(self) -> Poly:
        p = self.factor()
        while True:
            self.skip_ws()
            if self.peek() != "*":
                return p
            self.pos += 1
            p = p * self.factor()

    def uint(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected a digit")
        return int(self.text[start:self.pos])

    def factor(self) -> Poly:
        self.skip_ws()
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            p = self.expr()
            self.skip_ws()
            self.expect(")")
            return p
        if ch == "-" or ch.isdigit():
            sign = 1
            if ch == "-":
                self.pos += 1
                self.skip_ws()
                sign = -1
            num = self.uint()
            den = 1
            self.skip_ws()
            if self.peek() == "/":
                self.pos += 1
                den = self.uint()
                if den == 0:
                    self.error("zero denominator")
            return Poly.const(self.vars, Fraction(sign * num, den))
        end = _name_end(self.text, self.pos)
        if end > self.pos:
            name = self.text[self.pos:end]
            if name not in self.index:
                self.error(f"unknown variable {name!r}")
            self.pos = end
            exp = 1
            self.skip_ws()
            if self.peek() == "^":
                self.pos += 1
                exp = self.uint()
            mono = tuple(exp if j == self.index[name] else 0
                         for j in range(len(self.vars)))
            return Poly(self.vars, {mono: 1})
        self.error("expected a number, variable, or parenthesized expression")


def parse_poly(text: str, variables: Sequence[str]) -> Poly:
    """Parse a polynomial string over the given variables.

    Raises PolyParseError (with .position) on malformed input, unknown
    variable names or a text that is not a str.
    """
    if not isinstance(text, str):
        raise PolyParseError(f"expected a polynomial string, got {type(text).__name__}", 0)
    return _Parser(text, variables).parse()


# -- differential forms ----------------------------------------------------

@lru_cache(maxsize=None)
def wedge_sign(left: tuple[int, ...], right: tuple[int, ...]):
    """Merge two ascending index tuples; return (sign, merged) or None.

    Cached: over n variables there are at most 4^n index pairs."""
    if set(left) & set(right):
        return None
    inversions = 0
    for a in left:
        for b in right:
            if a > b:
                inversions += 1
    merged = tuple(sorted(left + right))
    return (-1) ** inversions, merged


class DiffForm:
    """Polynomial differential form: dict from ascending dx-index tuples."""

    __slots__ = ("vars", "comps")

    def __init__(self, variables: Sequence[str],
                 comps: Mapping[tuple[int, ...], Poly] | None = None):
        self.vars = tuple(variables)
        clean: dict[tuple[int, ...], Poly] = {}
        if comps:
            for idx, p in comps.items():
                idx = tuple(idx)
                if tuple(sorted(set(idx))) != idx:
                    raise ValueError(f"index tuple {idx} must be strictly ascending")
                if any(i < 0 or i >= len(self.vars) for i in idx):
                    raise ValueError(f"index out of range in {idx}")
                if p.vars != self.vars:
                    raise ValueError("component polynomial over wrong variables")
                if p:
                    q = clean.get(idx)
                    p = p if q is None else q + p
                    if p:
                        clean[idx] = p
                    elif idx in clean:
                        del clean[idx]
        self.comps = clean

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "DiffForm":
        return cls(variables)

    @classmethod
    def from_poly(cls, p: Poly) -> "DiffForm":
        return cls(p.vars, {(): p})

    @classmethod
    def dx(cls, variables: Sequence[str], i: int) -> "DiffForm":
        return cls(variables, {(i,): Poly.one(variables)})

    def __add__(self, other: "DiffForm") -> "DiffForm":
        if self.vars != other.vars:
            raise ValueError("variable mismatch")
        comps = dict(self.comps)
        for idx, p in other.comps.items():
            comps[idx] = comps.get(idx, Poly.zero(self.vars)) + p
        return DiffForm(self.vars, comps)

    def __neg__(self) -> "DiffForm":
        return DiffForm(self.vars, {i: -p for i, p in self.comps.items()})

    def __sub__(self, other: "DiffForm") -> "DiffForm":
        return self + (-other)

    def scale(self, c) -> "DiffForm":
        if not isinstance(c, Poly):
            c = _exact(c)
        return DiffForm(self.vars, {i: p * c for i, p in self.comps.items()})

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__

    def wedge(self, other: "DiffForm") -> "DiffForm":
        if self.vars != other.vars:
            raise ValueError("variable mismatch")
        comps: dict[tuple[int, ...], Poly] = {}
        for i1, p1 in self.comps.items():
            for i2, p2 in other.comps.items():
                merged = wedge_sign(i1, i2)
                if merged is None:
                    continue
                sign, idx = merged
                q = p1 * p2 * sign
                comps[idx] = comps.get(idx, Poly.zero(self.vars)) + q
        return DiffForm(self.vars, comps)

    def d(self) -> "DiffForm":
        """Exterior derivative."""
        comps: dict[tuple[int, ...], Poly] = {}
        for idx, p in self.comps.items():
            for i in range(len(self.vars)):
                dp = p.partial(i)
                if not dp:
                    continue
                merged = wedge_sign((i,), idx)
                if merged is None:
                    continue
                sign, nidx = merged
                comps[nidx] = comps.get(nidx, Poly.zero(self.vars)) + dp * sign
        return DiffForm(self.vars, comps)

    def component(self, idx: tuple[int, ...]) -> Poly:
        return self.comps.get(tuple(idx), Poly.zero(self.vars))

    def top(self) -> Poly:
        """Coefficient of dx_0 ... dx_{n-1}."""
        return self.component(tuple(range(len(self.vars))))

    def is_zero(self) -> bool:
        return not self.comps

    def __bool__(self) -> bool:
        return bool(self.comps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffForm):
            return NotImplemented
        return self.vars == other.vars and self.comps == other.comps

    def __hash__(self):
        return hash((self.vars, frozenset((i, hash(p)) for i, p in self.comps.items())))

    def __str__(self) -> str:
        if not self.comps:
            return "0"
        parts = []
        for idx in sorted(self.comps, key=lambda t: (len(t), t)):
            p = self.comps[idx]
            dxs = "".join(f"d{self.vars[i]}" for i in idx)
            if not dxs:
                parts.append(f"({p})")
            else:
                parts.append(f"({p}){dxs}")
        return " + ".join(parts)

    __repr__ = __str__


class FormSeries:
    """Truncated power series in an even formal variable u with DiffForm
    coefficients.  Stores coefficients of u^0 .. u^(order-1)."""

    __slots__ = ("vars", "order", "coeffs")

    def __init__(self, variables: Sequence[str], coeffs: Iterable[DiffForm], order: int):
        if order < 1:
            raise ValueError("truncation order must be at least 1")
        self.vars = tuple(variables)
        self.order = order
        got = list(coeffs)[:order]
        while len(got) < order:
            got.append(DiffForm.zero(self.vars))
        for c in got:
            if c.vars != self.vars:
                raise ValueError("coefficient over wrong variables")
        self.coeffs = got

    @classmethod
    def zero(cls, variables: Sequence[str], order: int) -> "FormSeries":
        return cls(variables, [], order)

    def twist_diff(self, f: Poly) -> "FormSeries":
        """Apply the twisted differential -df ^ (.) + u d(.)."""
        df = DiffForm.from_poly(f).d()
        out = []
        for k in range(self.order):
            term = (-df).wedge(self.coeffs[k])
            if k > 0:
                term = term + self.coeffs[k - 1].d()
            out.append(term)
        return FormSeries(self.vars, out, self.order)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormSeries):
            return NotImplemented
        return (self.vars == other.vars and self.order == other.order
                and self.coeffs == other.coeffs)

    def __str__(self) -> str:
        parts = [f"u^{k}*[{c}]" for k, c in enumerate(self.coeffs) if not c.is_zero()]
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__
