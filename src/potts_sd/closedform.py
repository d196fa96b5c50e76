"""Closed-form bulk, surface and corner free energies, numeric and exact.

Sign convention: log Z = -M*N*f_b - M*f_s - N*f_sp - f_c, so the f's here
are the quantities multiplying the lattice dimensions with a minus sign.

f_b and f_s are implemented in both of their printed representations,
and the pair is cross-checked by the test suite; f_sp and f_c have one:

    f_b : log(q/(1+q)) - sum_n (1-q^n)(w^{2n}+q^n w^{-2n}) / (n(1+q^n))
        = -K1 - K2 - log(1+q)
          + sum_n q^n (1-q^n)(w^{2n}+q^n w^{-2n}) / (n(1+q^n))

    f_s : sum_n (1-q^n)(w^{2n}-q^{2n} w^{-2n}) / (n(1+q^{2n}))
        = log((1-q^2/w^2)/(1-w^2))
          - sum_n q^n (1+q^n)(w^{2n}-q^{2n} w^{-2n}) / (n(1+q^{2n}))

    f_sp: sum_n q^n (1-q^n)(w^{-2n}-w^{2n}) / (n(1+q^{2n}))   (= f_s at s->1/s)

    f_c : -sum_n (q^n + 4 q^{2n} + q^{3n}) / (n(1-q^{4n}))
        = log prod_k (1-q^{4k-3})(1-q^{4k-2})^4 (1-q^{4k-1})

Each sum is one Lambert list, giving the exact series and the float value
with a rigorous geometric tail bound.  Each list is also a product
(``lambert_families``): its float value (``_exp_lambert``) continues exp of
the sum to an annulus that holds both u and lam-u, and its families mapped
by w^2 -> q^2/w^2 are the sum at lam-u; ``relations`` checks the inversion
relations on both.  f_c's product above is not typed: it is derived from
``CORNER_LAMBERT``, and evaluated as such near Q -> 4+ (``fc_asymptote``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bundle import FreeEnergyBundle, LogSeries
from .errors import ConvergenceError, DomainError
from .params import SpectralParams, _Q, _exp_K1, _exp_K2, _xi, couplings
from .qseries import (
    _INF,
    DEFAULT_ORDER,
    TruncatedSeries,
    _Ratio,
    lambert_families,
    lambert_sum,
)

_SUM_RTOL = 1e-16
_MAX_TERMS = 200_000


class _Undetermined:
    """Sentinel for the one constant the functional relations cannot fix."""

    def __repr__(self):
        return "UNDETERMINED"


UNDETERMINED = _Undetermined()


def _float_monomial(a: int, b: int, q, w2=1):
    """t^a s^b at (q, w^2), ``lambert_sum``'s map inverted: q^{(a-2b)/4} w^{2b}."""
    return q ** ((a - 2 * b) / 4) * w2**b


def _lambert_float(lambert, q: float, w2: float = 1.0) -> float:
    """The Lambert list (numer, denom_tstep, denom_sign) as a float at (q, w^2).

    Each numerator t^a s^b becomes its ratio r = ``_float_monomial(a, b)``.
    With D = q^{denom_tstep/4}, every 1 + sign D^n is at least m = min(1, 1-D),
    so the tail after n is at most sum_j |c_j| r_j^{n+1} / (m (n+1)(1-r_j)).
    The terms n <= n0 are one array, n0 from the largest ratio and doubled
    (up to ``_MAX_TERMS``) until, at some n >= 4, the tail bound is below
    1e-16 of the partial sum; the sum stops there.
    """
    numer, dstep, dsign = lambert
    ratios = [_float_monomial(a, b, q, w2) for _, a, b in numer]
    for r in ratios:
        if not 0 <= r < 1:
            raise DomainError(f"summand ratio {r} outside [0,1): sum diverges")
    m = 1.0 if dsign > 0 else 1 - q ** (dstep / 4)
    # per ratio r_j: c_j for the terms, and the tail bound's amplitude of r_j^n / (n+1)
    coef = np.array([(c, abs(c) / m * r / (1 - r)) for (c, _, _), r in zip(numer, ratios)])
    top = max(ratios)
    n0 = 4 if top == 0 else max(4, math.ceil(math.log(_SUM_RTOL * (1 - top)) / math.log(top)))
    while True:
        n0 = min(n0, _MAX_TERMS)
        n = np.arange(1, n0 + 1)
        num, bound = coef.T @ np.array(ratios)[:, None] ** n
        terms = num / (n * (1 + dsign * q ** (dstep / 4 * n)))
        done = bound / (n + 1) <= _SUM_RTOL * np.maximum(np.abs(np.cumsum(terms)), 1e-300)
        k = 3 + done[3:].argmax()
        if done[k]:
            return math.fsum(terms[: k + 1].tolist())
        if n0 == _MAX_TERMS:
            raise ConvergenceError("series sum did not meet its tail bound")
        n0 *= 2


def _check_length(top, r, tiny, what: str):
    """Refuse a product whose largest symbol ``top`` needs more than
    ``_MAX_TERMS`` factors of ratio ``r`` to fall below ``tiny``."""
    if top * r**_MAX_TERMS >= tiny:
        raise DomainError(f"{what} needs more than {_MAX_TERMS} product factors")


def _qprod(num, den, r, tiny, what: str):
    """prod_{a in num} (a; r)_inf / prod_{b in den} (b; r)_inf, floats or mpmath.

    (a; r)_inf = prod_{k>=0} (1 - a r^k) is the q-Pochhammer product.  Factor
    k of every symbol is taken at once from a running power r^k, so a
    balanced ratio stays near 1, until every |a r^k| < tiny.  A product
    needing more than ``_MAX_TERMS`` factors (r rounded to 1 too) is refused
    before its first factor, and a float result below the float range after
    its last, with a DomainError naming ``what``.
    """
    top = max(map(abs, num + den))
    _check_length(top, r, tiny, what)
    out, rk = 1, 1
    while top * rk >= tiny:
        for a in num:
            out *= 1 - a * rk
        for b in den:
            out /= 1 - b * rk
        rk *= r
    if isinstance(out, float) and abs(out) < sys.float_info.min:
        raise DomainError(f"{what}: the product is below the smallest float")
    return out


def _symbols(families, q, w2=1):
    """Each ``log_product`` family (b, t0, tstep, e) as (a, r, e), the symbol
    (a; r)_inf^e with a = s^b t^t0 and r = t^tstep as ``_float_monomial``s."""
    return [(_float_monomial(t0, b, q, w2), _float_monomial(tstep, 0, q), e) for b, t0, tstep, e in families]


def _exp_lambert(lambert, q: float, w2: float) -> float:
    """exp of the Lambert list's sum as the product of its ``lambert_families``,
    which share one ratio r: one ``_qprod``, so the product stays near 1.

    The sum converges only for q < w^2 < 1; the product continues it to the
    annulus q^2 < w^2 < 1/q (real, possibly negative), which holds the
    lam - u images that ``relations``' inversion rows evaluate."""
    num, den = [], []
    for a, r, e in _symbols(lambert_families(*lambert), q, w2):
        (num if e > 0 else den).extend([a] * abs(e))
    return _qprod(num, den, r, 1e-19, f"q = {q}")


def _corner_log(q, tiny, what: str):
    """f_c as the log of the product of ``CORNER_LAMBERT``'s families, for a
    float or an mpmath q; one log per family keeps a float q in range up to
    0.9994, not 0.9965."""
    log = getattr(q, "context", math).log
    families = lambert_families(*CORNER_LAMBERT)
    return sum(e * log(_qprod([a], [], r, tiny, what)) for a, r, e in _symbols(families, q))


# ----------------------------------------------------------------------------
# the Lambert lists
# ----------------------------------------------------------------------------
#
# Each sum is written once, as the arguments (numer, denom_tstep, denom_sign)
# of ``lambert_sum``, which expands it exactly; ``_lambert_float`` evaluates
# it, ``_exp_lambert`` continues exp of it, and ``relations`` maps its
# families to lam - u.  The f'_s and isotropic lists are typed out, not
# derived from f_s or from s = 1, so the rotation and isotropic checks
# compare independent lists.

BULK_LAMBERT = (((1, 2, 1), (-1, 6, 1), (1, 2, -1), (-1, 6, -1)), 4, +1)
BULK_COUPLING_LAMBERT = (((1, 6, 1), (-1, 10, 1), (1, 6, -1), (-1, 10, -1)), 4, +1)  # S_b
SURFACE_V_LAMBERT = (((1, 2, 1), (-1, 6, -1), (-1, 6, 1), (1, 10, -1)), 8, +1)
SURFACE_LOG_LAMBERT = (((1, 6, 1), (1, 10, 1), (-1, 10, -1), (-1, 14, -1)), 8, +1)  # log G
SURFACE_H_LAMBERT = (((1, 2, -1), (-1, 6, 1), (-1, 6, -1), (1, 10, 1)), 8, +1)
CORNER_LAMBERT = (((-1, 4, 0), (-4, 8, 0), (-1, 12, 0)), 16, -1)
BULK_ISOTROPIC_LAMBERT = (((2, 2, 0), (-2, 6, 0)), 4, +1)
SURFACE_ISOTROPIC_LAMBERT = (((1, 2, 0), (-2, 6, 0), (1, 10, 0)), 8, +1)


# ----------------------------------------------------------------------------
# numeric values
# ----------------------------------------------------------------------------

def f_bulk(sp: SpectralParams, form: str = "sum") -> float:
    """Bulk free energy; ``form`` picks the representation ('sum'|'coupling')."""
    q, w2 = sp.q, sp.w2
    if form == "sum":
        return math.log(q / (1 + q)) - _lambert_float(BULK_LAMBERT, q, w2)
    if form == "coupling":
        cp = couplings(sp)
        return -cp.K1 - cp.K2 - math.log(1 + q) + _lambert_float(BULK_COUPLING_LAMBERT, q, w2)
    raise ValueError(f"unknown form {form!r}")


def f_surface_v(sp: SpectralParams, form: str = "sum") -> float:
    """Vertical surface free energy ('sum' | 'log' representations)."""
    q, w2 = sp.q, sp.w2
    if form == "sum":
        return _lambert_float(SURFACE_V_LAMBERT, q, w2)
    if form == "log":
        return math.log(_surface_prefactor(q, w2)) - _lambert_float(SURFACE_LOG_LAMBERT, q, w2)
    raise ValueError(f"unknown form {form!r}")


def f_surface_h(sp: SpectralParams) -> float:
    """Horizontal surface free energy (the rotation image of f_s).

    Diverges logarithmically as w^2 -> q+ (exp(-f_sp) has a simple zero
    there); the summand ratio guard rejects w^2 <= q.
    """
    return _lambert_float(SURFACE_H_LAMBERT, sp.q, sp.w2)


def f_corner(q: float) -> float:
    """Corner free energy: a function of q alone."""
    if not 0 < q < 1:
        raise DomainError(f"q must lie in (0,1), got {q}")
    return _lambert_float(CORNER_LAMBERT, q)


def free_energies(sp: SpectralParams) -> FreeEnergyBundle:
    return FreeEnergyBundle(
        f_b=f_bulk(sp),
        f_s=f_surface_v(sp),
        f_sp=f_surface_h(sp),
        f_c=f_corner(sp.q),
        route="closedform",
    )


# isotropic (s = 1) reference forms

def f_bulk_isotropic_sum(q: float) -> float:
    return math.log(q / (1 + q)) - _lambert_float(BULK_ISOTROPIC_LAMBERT, q)


def f_bulk_isotropic_product(q: float) -> float:
    """exp(-f_b) = ((1+q)/q) (1-h)^2 [(h^3;h^4)/(h;h^4)]^4 with h = q^{1/2}."""
    h = math.sqrt(q)
    return -math.log((1 + q) / q * (1 - h) ** 2 * _qprod([h**3] * 4, [h] * 4, q * q, 1e-19, f"q = {q}"))


def f_surface_isotropic_sum(q: float) -> float:
    return _lambert_float(SURFACE_ISOTROPIC_LAMBERT, q)


def f_surface_isotropic_product(q: float) -> float:
    """exp(-f_s) = (1-h) [(h^7;h^8)/(h^3;h^8)]^2 with h = q^{1/2}."""
    h = math.sqrt(q)
    return -math.log((1 - h) * _qprod([h**7] * 2, [h**3] * 2, q**4, 1e-19, f"q = {q}"))


# ----------------------------------------------------------------------------
# exact series
# ----------------------------------------------------------------------------

def rational_series(f, order: int) -> TruncatedSeries:
    """f(q, w^2) at q = t^4, w^2 = s t^2 as a series exact through t^order.

    ``f`` is a rational formula in (q, w^2), such as the raw coupling forms
    of ``params``.  It runs exactly, on a numerator/denominator pair of
    Laurent polynomials in (t, s), and the pair is divided once, at the end
    (``qseries._Ratio``); a zero denominator, or one whose lowest
    coefficient is not a monomial in s, raises a TruncationError.
    """
    q = _Ratio(TruncatedSeries.term(1, 4, 0, order=_INF))
    w2 = _Ratio(TruncatedSeries.term(1, 2, 1, order=_INF))
    return _Ratio.of(f(q, w2)).series(order)


def _bulk_prefactor(q, w2):
    """q (1+q) e^{K1} e^{K2}, so that f_b = log q - log(this) + S_b."""
    return q * (1 + q) * _exp_K1(q, w2) * _exp_K2(q, w2)


def _surface_prefactor(q, w2):
    """(1 - q^2/w^2)/(1 - w^2), so that f_s = log(this) - log G."""
    return (1 - q * q / w2) / (1 - w2)


def log1pq_series(order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """log(1+q) as a series in t."""
    return rational_series(lambda q, w2: 1 + q, order).log()


def f_bulk_series(order: int = DEFAULT_ORDER, form: str = "sum") -> LogSeries:
    """f_b as log(q) + series; both representations agree exactly."""
    if form == "sum":
        return LogSeries(Fraction(1), -log1pq_series(order) - lambert_sum(*BULK_LAMBERT, order))
    if form == "coupling":
        s = lambert_sum(*BULK_COUPLING_LAMBERT, order)
        return LogSeries(Fraction(1), s - rational_series(_bulk_prefactor, order).log())
    raise ValueError(f"unknown form {form!r}")


def f_surface_v_series(order: int = DEFAULT_ORDER, form: str = "sum") -> TruncatedSeries:
    if form == "sum":
        return lambert_sum(*SURFACE_V_LAMBERT, order)
    if form == "log":
        return rational_series(_surface_prefactor, order).log() - lambert_sum(*SURFACE_LOG_LAMBERT, order)
    raise ValueError(f"unknown form {form!r}")


def f_surface_h_series(order: int = DEFAULT_ORDER) -> TruncatedSeries:
    return lambert_sum(*SURFACE_H_LAMBERT, order)


def f_corner_series(order: int = DEFAULT_ORDER) -> TruncatedSeries:
    return lambert_sum(*CORNER_LAMBERT, order)


def f_bulk_isotropic_series(order: int = DEFAULT_ORDER) -> LogSeries:
    """Isotropic reference: f_b = log(q/(1+q)) - 2 sum q^{n/2}(1-q^n)/(n(1+q^n))."""
    return LogSeries(Fraction(1), -log1pq_series(order) - lambert_sum(*BULK_ISOTROPIC_LAMBERT, order))


def f_surface_isotropic_series(order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Isotropic reference: f_s = sum q^{n/2}(1-q^n)^2/(n(1+q^{2n}))."""
    return lambert_sum(*SURFACE_ISOTROPIC_LAMBERT, order)


def series_bundle(order: int = DEFAULT_ORDER) -> FreeEnergyBundle:
    return FreeEnergyBundle(
        f_b=f_bulk_series(order),
        f_s=f_surface_v_series(order),
        f_sp=f_surface_h_series(order),
        f_c=f_corner_series(order),
        route="closedform",
        meta={"order": order},
    )


# ----------------------------------------------------------------------------
# coefficient recursions from the inversion and rotation relations
# ----------------------------------------------------------------------------

@dataclass
class InversionDerivation:
    """Free energies rebuilt from the functional relations alone.

    ``corner_constant`` is the one coefficient the relations cannot fix and
    is deliberately left as the UNDETERMINED sentinel, never silently set.
    ``cb``, ``cs``, ``ds`` are the solved annulus coefficients (series in q)
    for the bulk and surface generating functions, indexed by n >= 1.
    """

    bundle: FreeEnergyBundle
    cb: dict
    db: dict
    cs: dict
    ds: dict
    corner_constant: object


def _s_slice(series: TruncatedSeries, n: int) -> TruncatedSeries:
    """Coefficient of s^n as a q-only series, with the t^(2n) of w^(2n) removed."""
    out = {}
    for d, p in series.coeffs.items():
        v = p.c.get(n)
        if v:
            out[d - 2 * n] = v
    return TruncatedSeries(series.order - 2 * n, {d: out[d] for d in out})


def derive_from_inversion(order: int = DEFAULT_ORDER, n_max: int | None = None) -> InversionDerivation:
    """Solve the coupling-inversion and rotation constraints for f_b, f_s, f_c.

    Writing exp(-f_b) = exp(K1+K2) F(u), exp(-f_s) = (1-w^2) G(u)/(1-q^2/w^2)
    and expanding log F, log G, f_c as Laurent series in w^2 over the annulus
    q <= |w^2| <= 1, the relation pair

        f_b(u) + f_b(lam-u) = -log xi(u),      f_b(u) = f_b(lam/2-u)

    fixes the bulk coefficients, the pair for f_s fixes the surface ones,
    and the corner relations force every n != 0 coefficient to vanish.  The
    right-hand sides are generated here from the xi / Delta series, not
    transcribed, so the solved coefficients are a genuine consequence of
    the relations.
    """
    if order < 4:
        raise DomainError("order must be at least 4")
    if n_max is None:
        n_max = max(order // 6 + 1, 1)
    one = TruncatedSeries.one

    # bulk: (f_b + K1 + K2)(u) + (same)(lam-u) = log[(xi - Q + 1)/xi]
    rhs_b = rational_series(lambda q, w2: 1 - (_Q(q) - 1) / _xi(q, w2), order).log()
    # surface: -log G(u) + log G(-u) = log[(1-q w^2)(1-q^2 w^2) / ((1-q/w^2)(1-q^2/w^2))]
    rhs_s = rational_series(
        lambda q, w2: (1 - q * w2) * (1 - q * q * w2) / ((1 - q / w2) * (1 - q * q / w2)), order
    ).log()

    cb, db, cs, ds = {}, {}, {}, {}
    for n in range(1, n_max + 1):
        # c_n + q^{-2n} d_n = R_n and d_n = q^n c_n (rotation)
        rn = _s_slice(rhs_b, n)
        cb[n] = rn * (one(rn.order) + TruncatedSeries.term(1, -4 * n, 0, order=rn.order)).reciprocal()
        db[n] = cb[n].shift(4 * n)
        # d_n - c_n = S_n and c_n = -q^{-2n} d_n (inversion)
        sn = _s_slice(rhs_s, n)
        ds[n] = sn * (one(sn.order) + TruncatedSeries.term(1, -8 * n, 0, order=sn.order)).reciprocal()
        cs[n] = -ds[n].shift(-8 * n)

    # assemble f_b = -K1 - K2 - log(1+q) + sum_n [cb_n w^{2n} + db_n w^{-2n}]
    acc = -rational_series(_bulk_prefactor, order).log()
    for n in range(1, n_max + 1):
        acc = acc + cb[n].shift(2 * n, n).truncate(order)
        acc = acc + db[n].shift(-2 * n, -n).truncate(order)
    fb = LogSeries(Fraction(1), acc.truncate(order))

    # f_s = log((1-q^2/w^2)/(1-w^2)) - sum_n [cs_n w^{2n} + ds_n w^{-2n}]
    acc_s = rational_series(_surface_prefactor, order).log()
    for n in range(1, n_max + 1):
        acc_s = acc_s - cs[n].shift(2 * n, n).truncate(order)
        acc_s = acc_s - ds[n].shift(-2 * n, -n).truncate(order)
    fs = acc_s.truncate(order)

    # corner: d_n = q^{2n} c_n (inversion) and d_n = q^n c_n (rotation) force
    # (q^n - q^{2n}) c_n = 0, hence c_n = d_n = 0 for all n > 0.
    fc = TruncatedSeries.zero(order)

    bundle = FreeEnergyBundle(
        f_b=fb,
        f_s=fs,
        f_sp=fs.subst_s_inv(),
        f_c=fc,
        route="inversion",
        meta={"order": order, "corner_constant": "undetermined"},
    )
    return InversionDerivation(bundle=bundle, cb=cb, db=db, cs=cs, ds=ds, corner_constant=UNDETERMINED)


# ----------------------------------------------------------------------------
# critical region (Q -> 4+)
# ----------------------------------------------------------------------------

def fs_continuation_check(lam: float, u: float) -> float:
    """Magnitude of the small-lam singular part of f_s.

    The regular part of the continuation is the closed-form Lambert sum
    itself (``f_surface_v(sp, form="sum")``), so only the singular part is
    computed here.  It decays like exp(-pi^2/(2 lam)); its term-by-term
    magnitude uses |i + (-1)^((n-1)/2)| = sqrt(2).
    """
    if not 0 < u < lam / 2:
        raise DomainError("requires 0 < u < lam/2")
    mag_terms = []
    n = 1
    while True:
        e = math.exp(-math.pi**2 * n / (2 * lam))
        if e < 1e-300:
            break
        amp = 4 * math.sinh(math.pi * n * (lam - 2 * u) / (2 * lam)) * e / (n * (1 - e))
        mag_terms.append(math.sqrt(2.0) * abs(amp))
        if n > 3 and mag_terms[-1] < 1e-18 * sum(mag_terms):
            break
        n += 2
    return math.fsum(mag_terms)


def singular_decay_fit():
    """Fit log |singular part| against 1/lam; the slope should be -pi^2/2.

    Fixing u = lam/4 makes the sinh prefactor lam-independent, so the fit
    isolates the exponential decay rate.
    """
    lams = [0.35 + 0.05 * i for i in range(8)]
    xs = [1.0 / lam for lam in lams]
    ys = [math.log(fs_continuation_check(lam, 0.25 * lam)) for lam in lams]
    slope, _ = np.polyfit(np.asarray(xs), np.asarray(ys), 1)
    return float(slope), -math.pi**2 / 2


def conjugate_modulus_report(eps: float, prec_bits: int = 256) -> dict:
    """High-precision check of the modular product identities.

    Checks, with q = exp(-2 pi eps), q' = exp(-2 pi/eps),
    P(x) = prod (1 - x^{2k-1}) and E(x) = prod (1 - x^k):

      euler_odd_split      P(q) = E(q)/E(q^2)
      dedekind_transform   E(q) = eps^{-1/2} exp(pi(eps - 1/eps)/12) E(q')
      odd_product_transform  P(q) = sqrt(2) exp(-pi eps/12 - pi/(24 eps)) / P(q'^{1/2})
      corner_modular_form  exp(-f_c) = exp(3 pi eps/4 + pi/(8 eps))
                                        * P(q'^{1/2}) P(q'^{1/4})^4 / 2^{5/2}

    Returns the relative difference of the two sides of each identity.
    """
    import mpmath

    with mpmath.workprec(prec_bits):
        pi = mpmath.pi
        e = mpmath.mpf(eps)
        q = mpmath.exp(-2 * pi * e)
        qp = mpmath.exp(-2 * pi / e)
        tiny = mpmath.mpf(2) ** (-prec_bits - 16)
        what = f"eps = {eps} at {prec_bits} bits"

        qp4 = qp ** mpmath.mpf("0.25")
        euler = lambda x: _qprod([x], [], x, tiny, what)  # E(x) = (x; x)
        podd = lambda x: _qprod([x], [], x * x, tiny, what)  # P(x) = (x; x^2)
        # E(q) and P(q'^{1/4}) are the longest products below: an eps that
        # either refuses is refused before any product runs
        _check_length(q, q, tiny, what)
        _check_length(qp4, qp4 * qp4, tiny, what)

        def rel(a, b):
            return float(abs(a - b) / abs(b))

        report = {}
        report["euler_odd_split"] = rel(podd(q), euler(q) / euler(q * q))
        report["dedekind_transform"] = rel(
            euler(q), mpmath.exp(pi * (e - 1 / e) / 12) * euler(qp) / mpmath.sqrt(e)
        )
        report["odd_product_transform"] = rel(
            podd(q),
            mpmath.sqrt(2) * mpmath.exp(-pi * e / 12 - pi / (24 * e)) / podd(mpmath.sqrt(qp)),
        )
        emfc = 1 / (podd(q) * podd(q * q) ** 4)
        rhs = (
            mpmath.exp(3 * pi * e / 4 + pi / (8 * e))
            * podd(qp ** mpmath.mpf("0.5"))
            * podd(qp4) ** 4
            / mpmath.mpf(2) ** mpmath.mpf("2.5")
        )
        report["corner_modular_form"] = rel(emfc, rhs)
        return report


def fc_asymptote(eps: float) -> tuple[float, float]:
    """f_c near Q -> 4+ and its ratio to the asymptote -pi/(8 eps)."""
    import mpmath

    with mpmath.workprec(128):
        q = mpmath.exp(-2 * mpmath.pi * mpmath.mpf(eps))
        fc = float(_corner_log(q, mpmath.mpf(10) ** -40, f"eps = {eps}"))
    asym = -math.pi / (8 * eps)
    return fc, fc / asym
