"""Exact truncated series in t = q**(1/4) with Laurent-polynomial coefficients in s.

Grading convention: the expansion variable is t with q = t**4 and
w**2 = s*t**2, so every model quantity that is a power series in q at fixed
anisotropy s becomes a series in integer powers of t whose coefficients are
Laurent polynomials in s over exact rationals.  No floats enter anywhere in
this module.

Storage invariant: a coefficient whose value is an integer is stored as an
``int``, and a ``Fraction`` only for a non-integer.  ``LaurentPolyS``
construction enforces it, so integer operands stay on integer arithmetic
and only the genuine fractions (the 1/n of ``log``, ``exp``, the Lambert
sums and the logarithms of binomial products) pay for gcds.

A ``TruncatedSeries`` knows the largest degree it is exact through
(``order``); arithmetic propagates that bound, including the shift that
multiplication by a series of positive minimal degree buys.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import TruncationError

_INF = 10**9  # stand-in for "exact to all orders" bookkeeping


def _rat(x) -> Fraction | int:
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"exact coefficient expected, got {type(x).__name__}")


class LaurentPolyS:
    """Laurent polynomial in s: sparse map s-exponent -> exact rational.

    Immutable by convention; no stored zero coefficients, and an integral
    value is stored as its ``int`` numerator.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        c = {}
        for e, v in (coeffs or {}).items():
            if v:
                c[e] = v.numerator if type(v) is Fraction and v.denominator == 1 else v
        self.c = c

    @classmethod
    def const(cls, v) -> "LaurentPolyS":
        return cls({0: _rat(v)})

    @classmethod
    def monomial(cls, v, sdeg: int) -> "LaurentPolyS":
        return cls({sdeg: _rat(v)})

    def is_zero(self) -> bool:
        return not self.c

    def is_monomial(self) -> bool:
        return len(self.c) == 1

    def is_const(self) -> bool:
        return not self.c or set(self.c) == {0}

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPolyS):
            return self.c == other.c
        if isinstance(other, (int, Fraction)):
            return self.c == ({0: other} if other != 0 else {})
        return NotImplemented

    def __neg__(self) -> "LaurentPolyS":
        return LaurentPolyS({e: -v for e, v in self.c.items()})

    def __add__(self, other) -> "LaurentPolyS":
        if isinstance(other, (int, Fraction)):
            other = LaurentPolyS.const(other)
        out = dict(self.c)
        for e, v in other.c.items():
            out[e] = out.get(e, 0) + v
        return LaurentPolyS(out)

    def __sub__(self, other) -> "LaurentPolyS":
        if isinstance(other, (int, Fraction)):
            other = LaurentPolyS.const(other)
        return self + (-other)

    def __mul__(self, other) -> "LaurentPolyS":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return LaurentPolyS()
            return LaurentPolyS({e: v * other for e, v in self.c.items()})
        out: dict[int, Fraction | int] = {}
        _mul_into(out, self.c, other.c)
        return LaurentPolyS(out)

    __rmul__ = __mul__

    def subst_s_inv(self) -> "LaurentPolyS":
        """The involution s -> 1/s (negates all exponents)."""
        return LaurentPolyS({-e: v for e, v in self.c.items()})

    def eval(self, s):
        """Evaluation at s (exact for int/Fraction s, numeric otherwise)."""
        if isinstance(s, int):
            s = Fraction(s)
        total = 0
        for e, v in self.c.items():
            total += v * s**e
        return total

    def __repr__(self):
        if not self.c:
            return "0"
        parts = []
        for e in sorted(self.c):
            v = self.c[e]
            if e == 0:
                parts.append(f"{v}")
            else:
                parts.append(f"{v}*s^{e}")
        return " + ".join(parts)


def _mul_into(acc: dict, a: dict, b: dict) -> None:
    """acc += a * b on maps s-exponent -> value; zeros are left for the
    ``LaurentPolyS`` built from ``acc`` to drop."""
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            e = e1 + e2
            acc[e] = acc.get(e, 0) + v1 * v2


def _conv(a: dict, b: dict, n: int) -> dict:
    """sum_{1<=k<=n} a_k * b_{n-k} over two maps t-degree -> LaurentPolyS,
    as one map s-exponent -> value (zeros not yet dropped)."""
    acc: dict = {}
    for k, ak in a.items():
        bk = b.get(n - k) if 1 <= k <= n else None
        if bk is not None:
            _mul_into(acc, ak.c, bk.c)
    return acc


class TruncatedSeries:
    """Series in t with LaurentPolyS coefficients, exact through ``order``.

    ``coeffs`` maps t-degree (possibly negative) to a nonzero LaurentPolyS.
    Terms of degree > order are unknown, not zero.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=None):
        self.order = order
        cc = {}
        for d, p in (coeffs or {}).items():
            if d > order:
                continue
            if not isinstance(p, LaurentPolyS):
                p = LaurentPolyS.const(p)
            if not p.is_zero():
                cc[d] = p
        self.coeffs = cc

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls(order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls(order, {0: LaurentPolyS.const(1)})

    @classmethod
    def term(cls, coeff, tdeg: int = 0, sdeg: int = 0, *, order: int) -> "TruncatedSeries":
        return cls(order, {tdeg: LaurentPolyS.monomial(coeff, sdeg)})

    @classmethod
    def from_terms(cls, terms, *, order: int) -> "TruncatedSeries":
        """terms: iterable of (coeff, tdeg, sdeg)."""
        raw: dict[int, dict] = {}
        for coeff, td, sd in terms:
            if td > order:
                continue
            p = raw.setdefault(td, {})
            p[sd] = p.get(sd, 0) + _rat(coeff)
        return cls(order, {d: LaurentPolyS(p) for d, p in raw.items()})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def min_deg(self):
        """Lowest stored degree, or None for the zero series."""
        return min(self.coeffs) if self.coeffs else None

    def coeff(self, tdeg: int) -> LaurentPolyS:
        if tdeg > self.order:
            raise TruncationError(f"degree {tdeg} beyond truncation order {self.order}")
        return self.coeffs.get(tdeg, LaurentPolyS())

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise TruncationError("cannot extend a truncated series")
        return TruncatedSeries(order, {d: p for d, p in self.coeffs.items() if d <= order})

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries(self.order, {0: LaurentPolyS.const(other)})
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        t = min(self.order, other.order)
        a = {d: p for d, p in self.coeffs.items() if d <= t}
        b = {d: p for d, p in other.coeffs.items() if d <= t}
        return a == b

    # -- ring operations ----------------------------------------------------

    def _effective_min(self) -> int:
        return min(self.coeffs) if self.coeffs else _INF

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.order, {d: -p for d, p in self.coeffs.items()})

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries(self.order, {0: LaurentPolyS.const(other)})
        return other

    def __add__(self, other) -> "TruncatedSeries":
        other = self._coerce(other)
        order = min(self.order, other.order)
        out = {d: p for d, p in self.coeffs.items() if d <= order}
        for d, p in other.coeffs.items():
            if d > order:
                continue
            np_ = out.get(d)
            s = p if np_ is None else np_ + p
            if s.is_zero():
                out.pop(d, None)
            else:
                out[d] = s
        return TruncatedSeries(order, out)

    __radd__ = __add__

    def __sub__(self, other) -> "TruncatedSeries":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "TruncatedSeries":
        return self._coerce(other) - self

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return TruncatedSeries(self.order)
            return TruncatedSeries(self.order, {d: p * other for d, p in self.coeffs.items()})
        order = min(self.order + other._effective_min(), other.order + self._effective_min())
        order = min(order, _INF)
        # one raw accumulator per output degree, one LaurentPolyS each at the end
        out: dict[int, dict] = {}
        for d1, p1 in self.coeffs.items():
            for d2, p2 in other.coeffs.items():
                d = d1 + d2
                if d <= order:
                    acc = out.get(d)
                    if acc is None:
                        acc = out[d] = {}
                    _mul_into(acc, p1.c, p2.c)
        return TruncatedSeries(order, {d: LaurentPolyS(acc) for d, acc in out.items()})

    __rmul__ = __mul__

    def shift(self, tdeg: int, sdeg: int = 0, coeff=1) -> "TruncatedSeries":
        """Multiply by the monomial coeff * s**sdeg * t**tdeg."""
        return TruncatedSeries(
            self.order + tdeg,
            {d + tdeg: p * LaurentPolyS.monomial(coeff, sdeg) for d, p in self.coeffs.items()},
        )

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse; leading coefficient must be a monomial in s."""
        if self.is_zero():
            raise TruncationError("zero series has no reciprocal")
        d0 = self.min_deg
        lead = self.coeffs[d0]
        if not lead.is_monomial():
            raise TruncationError(
                "leading coefficient is not a monomial in s; reciprocal leaves the ring"
            )
        (e0, c0), = lead.c.items()
        # self = c0 s^e0 t^d0 g with g = 1 + O(t); then r_n = -sum_{k>=1} g_k r_{n-k}
        g = self.shift(-d0, -e0, Fraction(1, 1) / c0)
        r = {0: LaurentPolyS.const(1)}
        for n in range(1, g.order + 1):
            c = -LaurentPolyS(_conv(g.coeffs, r, n))
            if not c.is_zero():
                r[n] = c
        return TruncatedSeries(g.order, r).shift(-d0, -e0, Fraction(1, 1) / c0)

    def pow(self, n: int) -> "TruncatedSeries":
        if n == 0:
            return TruncatedSeries.one(self.order)
        base = self if n > 0 else self.reciprocal()
        n = abs(n)
        out = None
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return out

    __pow__ = pow

    def log_numerators(self) -> dict:
        """{n: h_n} with h_n = n g_n the nonzero LaurentPolyS numerators of
        g = log(self), for a series with constant term exactly 1.

        h_n = n f_n - sum_{k<n} h_k f_{n-k}, so h is integral when f is.
        ``log`` divides each h_n by n; ``lattice.series_logZ`` adds integer
        numerators of its own to h before it divides.
        """
        if self.coeff(0) != LaurentPolyS.const(1) or (self.min_deg is not None and self.min_deg < 0):
            raise TruncationError("log requires constant term 1 and no negative degrees")
        h = {}
        for n in range(1, self.order + 1):
            acc = {e: -v for e, v in _conv(h, self.coeffs, n).items()}
            fn = self.coeffs.get(n)
            if fn is not None:
                for e, v in fn.c.items():
                    acc[e] = acc.get(e, 0) + n * v
            hn = LaurentPolyS(acc)
            if not hn.is_zero():
                h[n] = hn
        return h

    def log(self) -> "TruncatedSeries":
        """log of a series with constant term exactly 1."""
        g = {n: LaurentPolyS({e: Fraction(v, n) for e, v in hn.c.items()}) for n, hn in self.log_numerators().items()}
        return TruncatedSeries(self.order, g)

    def exp(self) -> "TruncatedSeries":
        """exp of a series with strictly positive minimal degree."""
        if not self.is_zero() and self.min_deg <= 0:
            raise TruncationError("exp requires strictly positive minimal degree")
        # n f_n = sum_k (k g_k) f_{n-k}
        dg = {k: p * k for k, p in self.coeffs.items()}
        f = {0: LaurentPolyS.const(1)}
        for n in range(1, self.order + 1):
            c = LaurentPolyS({e: Fraction(v, n) for e, v in _conv(dg, f, n).items()})
            if not c.is_zero():
                f[n] = c
        return TruncatedSeries(self.order, f)

    # -- substitutions and evaluation ---------------------------------------

    def subst_s_inv(self) -> "TruncatedSeries":
        """s -> 1/s on every coefficient (the lattice-rotation image)."""
        return TruncatedSeries(self.order, {d: p.subst_s_inv() for d, p in self.coeffs.items()})

    def eval(self, t, s):
        """Full evaluation (exact for int/Fraction arguments, numeric else)."""
        if isinstance(t, int):
            t = Fraction(t)
        total = 0
        for d, p in self.coeffs.items():
            total += p.eval(s) * t**d
        return total

    def s_free(self) -> bool:
        return all(p.is_const() for p in self.coeffs.values())

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        terms = []
        for d in sorted(self.coeffs):
            p = self.coeffs[d]
            sterms = []
            for e in sorted(p.c):
                v = Fraction(p.c[e])
                sterms.append({"sdeg": e, "num": str(v.numerator), "den": str(v.denominator)})
            terms.append({"tdeg": d, "s_terms": sterms})
        return {"var": "q^(1/4)", "order": self.order, "terms": terms}

    @classmethod
    def from_json_dict(cls, d: dict) -> "TruncatedSeries":
        if d.get("var") != "q^(1/4)":
            raise ValueError("unknown series variable tag")
        coeffs = {}
        for term in d["terms"]:
            p = {}
            for st in term["s_terms"]:
                v = Fraction(int(st["num"]), int(st["den"]))
                p[st["sdeg"]] = int(v) if v.denominator == 1 else v
            coeffs[term["tdeg"]] = LaurentPolyS(p)
        return cls(d["order"], coeffs)

    def __repr__(self):
        if self.is_zero():
            return f"O(t^{self.order + 1})"
        parts = [f"({self.coeffs[d]})*t^{d}" for d in sorted(self.coeffs)]
        return " + ".join(parts) + f" + O(t^{self.order + 1})"


class _Ratio:
    """num / den, two exact Laurent polynomials in (t, s) held as
    ``TruncatedSeries`` at order ``_INF``.

    A rational formula in (q, w^2), such as the coupling forms of ``params``,
    runs on these with no truncation: + - * / ** only multiply and add
    polynomials, and a monomial denominator moves into the numerator.
    ``series`` divides once, at the end.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: TruncatedSeries, den: TruncatedSeries | None = None):
        if den is None:
            den = TruncatedSeries.one(_INF)
        elif len(den.coeffs) == 1:
            (d, p), = den.coeffs.items()
            if p.is_monomial():
                (e, c), = p.c.items()
                num, den = num.shift(-d, -e, Fraction(1) / c), TruncatedSeries.one(_INF)
        self.num, self.den = num, den

    @staticmethod
    def of(x) -> "_Ratio":
        return x if isinstance(x, _Ratio) else _Ratio(TruncatedSeries(_INF, {0: _rat(x)}))

    def __neg__(self) -> "_Ratio":
        return _Ratio(-self.num, self.den)

    def __add__(self, other) -> "_Ratio":
        o = _Ratio.of(other)
        return _Ratio(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other) -> "_Ratio":
        return self + -_Ratio.of(other)

    def __rsub__(self, other) -> "_Ratio":
        return _Ratio.of(other) + -self

    def __mul__(self, other) -> "_Ratio":
        o = _Ratio.of(other)
        return _Ratio(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "_Ratio":
        o = _Ratio.of(other)
        return _Ratio(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other) -> "_Ratio":
        return _Ratio.of(other) / self

    def __pow__(self, n: int) -> "_Ratio":
        num, den = (self.num, self.den) if n >= 0 else (self.den, self.num)
        return _Ratio(num.pow(abs(n)), den.pow(abs(n)))

    def series(self, order: int) -> TruncatedSeries:
        """num / den exact through t^order.

        With n0 the numerator's lowest degree, 1/den is needed through
        t^(order - n0); ``reciprocal`` loses twice den's lowest degree d0,
        so it gets den through t^(order - n0 + 2 d0).  A zero denominator,
        or one whose lowest coefficient is not a monomial in s, raises.
        """
        if self.den.is_zero():
            raise TruncationError("zero series has no reciprocal")
        if self.num.is_zero():
            return TruncatedSeries.zero(order)
        d0 = self.den.min_deg
        inv = self.den.truncate(max(d0, order - self.num.min_deg + 2 * d0)).reciprocal()
        return (self.num * inv).truncate(order)


DEFAULT_ORDER = 36  # t^36 = q^9


def lambert_families(numer, denom_tstep: int, denom_sign: int) -> list:
    """The Lambert list as ``log_product`` families: by 1/(1 + sign y^n) =
    sum_m (-sign y^n)^m, with y = t^D and D = denom_tstep, a numerator
    (c, a, b) is log prod_m (1 - s^b t^(a + D m))^(-c (-sign)^m), the family
    (b, a, D, -c) for sign -1 and, for sign +1, (b, a, 2D, -c) (even m) and
    (b, a + D, 2D, c) (odd m).  Zero numerators are dropped."""
    if denom_sign not in (1, -1):
        raise ValueError("denom_sign must be +1 or -1")
    if denom_tstep <= 0:
        raise TruncationError("denominator power must carry positive t-degree")
    families = []
    for c, tstep, sstep in numer:
        if c == 0:
            continue
        if tstep <= 0:
            raise TruncationError("numerator term with nonpositive t-degree; sum does not truncate")
        if denom_sign < 0:
            families.append((sstep, tstep, denom_tstep, -c))
        else:
            families += [(sstep, tstep, 2 * denom_tstep, -c), (sstep, tstep + denom_tstep, 2 * denom_tstep, c)]
    return families


def lambert_sum(numer, denom_tstep: int, denom_sign: int, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Exact expansion of sums of the recurring Lambert type.

        sum_{n>=1} ( sum_j c_j * s**(sstep_j*n) * t**(tstep_j*n) )
                   / ( n * (1 + denom_sign * t**(denom_tstep*n)) )

    ``numer`` is a list of (c_j, tstep_j, sstep_j); every tstep_j must be
    positive so the n-sum truncates.  In q/w notation a numerator monomial
    q**(a n) w**(2 b n) has tstep = 4a + 2b and sstep = b; the float
    evaluators of ``closedform`` use the inverse map, t^a s^b ->
    q^{(a-2b)/4} w^{2b}.  The sum is expanded as its ``lambert_families``.
    """
    return log_product(lambert_families(numer, denom_tstep, denom_sign), order)


def _log_geometric_terms(coeff, tdeg: int, sdeg: int, order: int, scale=1) -> list:
    """The terms (scale coeff^k / k, tdeg k, sdeg k) with tdeg k <= order of
    scale * log(1 / (1 - coeff * s**sdeg * t**tdeg)), for ``from_terms``."""
    if tdeg <= 0:
        raise TruncationError("needs positive t-degree")
    return [(Fraction(scale * coeff**k, k), tdeg * k, sdeg * k) for k in range(1, order // tdeg + 1)]


def log_geometric_inverse(coeff, tdeg: int, sdeg: int, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """log(1 / (1 - coeff * s**sdeg * t**tdeg)) = sum_k (coeff*s^sdeg*t^tdeg)^k / k."""
    return TruncatedSeries.from_terms(_log_geometric_terms(coeff, tdeg, sdeg, order), order=order)


def log_product(families, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """log prod_{k>=0} (1 - s**sdeg * t**(t0deg + tstep*k)) ** expo, multiplied
    over the families (sdeg, t0deg, tstep, expo): each factor of t-degree
    d <= order adds its ``_log_geometric_terms`` scaled by -expo, one term
    list for ``from_terms``.  t0deg <= 0 or tstep <= 0 does not truncate; it raises."""
    terms = []
    for sdeg, t0, tstep, expo in families:
        if t0 <= 0 or tstep <= 0:
            raise TruncationError("non-truncating product factor (t-degree <= 0)")
        for tdeg in range(t0, order + 1, tstep):
            terms += _log_geometric_terms(1, tdeg, sdeg, order, -expo)
    return TruncatedSeries.from_terms(terms, order=order)
