"""Model parameterizations and the pointwise scalar functions built on them.

Canonical coordinates are (q, w) with

    q = exp(-2*lam),   w = exp(-2*u),   t = q**(1/4),   s = w**2 / q**(1/2).

The self-dual couplings satisfy exp(K1) = 1 + sqrt(Q)*x and
exp(K2) = 1 + sqrt(Q)/x with Q = q + 2 + 1/q and
x = sinh(lam - 2u)/sinh(2u).  All hyperbolic forms are derived views; the
rational forms in (q, w**2) are the ones actually computed, and the
hyperbolic route is used as a cross-check.  The raw rational forms
(``_Q``, ``_exp_K1``, ``_exp_K2``, ``_xi``, ``_inversion_w2``, ``_delta``) use
only + - * / and integer powers, so they run unchanged over exact series in t
as well (``closedform.rational``).

The physical (ferromagnetic) strip is q < w**2 < 1, i.e. 0 < u < lam/2.
Operations are defined by their formulas outside that strip too, but such
points are flagged non-physical rather than rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, PoleError

POLE_RTOL = 1e-10  # relative distance below which named pole errors fire
CROSS_CHECK_RTOL = 1e-12


@dataclass(frozen=True)
class SpectralParams:
    """The point (q, w) together with its derived views."""

    q: float
    w: float

    def __post_init__(self):
        if not (0 < self.q < 1):
            raise DomainError(f"q must lie in (0, 1), got {self.q}")
        if not self.w > 0:
            raise DomainError(f"w must be positive, got {self.w}")

    @property
    def w2(self):
        return self.w * self.w

    @property
    def lam(self):
        return -math.log(self.q) / 2

    @property
    def u(self):
        return -math.log(self.w) / 2

    @property
    def t(self):
        return self.q ** 0.25

    @property
    def s(self):
        return self.w2 / math.sqrt(self.q)

    @property
    def Q(self):
        return _Q(self.q)

    @property
    def physical(self) -> bool:
        return self.q < self.w2 < 1

    @classmethod
    def from_q_s(cls, q, s) -> "SpectralParams":
        """Anisotropy form: w**2 = s * q**(1/2)."""
        if s <= 0:
            raise DomainError(f"s must be positive, got {s}")
        return cls(q, math.sqrt(s * math.sqrt(q)))


@dataclass(frozen=True)
class CouplingParams:
    """Couplings of the self-dual point: Q, K1, K2 and the anisotropy x."""

    Q: float
    x: float
    eK1: float
    eK2: float

    @property
    def K1(self):
        if self.eK1 <= 0:
            raise DomainError("K1 undefined: exp(K1) <= 0 outside the physical strip")
        return math.log(self.eK1)

    @property
    def K2(self):
        if self.eK2 <= 0:
            raise DomainError("K2 undefined: exp(K2) <= 0 outside the physical strip")
        return math.log(self.eK2)


def _check_pole(value, pole_at, name: str):
    denom = abs(pole_at) if pole_at != 0 else 1.0
    if abs(value - pole_at) <= POLE_RTOL * denom:
        raise PoleError(name)


def _Q(q):
    return q + 2 + 1 / q


def _exp_K1(q, w2):
    return (w2 / q) * (1 - q * q / w2) / (1 - w2)


def _exp_K2(q, w2):
    """exp(K2), apart from exp(K1): Delta is defined at w^2 = 1, the K1 pole."""
    return (1 / w2) * (1 - q * w2) / (1 - q / w2)


def _xi(q, w2):
    """xi = exp(K2(u)) exp(K2(lam-u)) + Q - 1, negative throughout the strip,
    with a double pole at u = lam/2 (w^2 = q)."""
    return -_Q(q) * (1 - w2) * (w2 - q * q) / (w2 - q) ** 2


def _inversion_w2(q, w2):
    """w^2 at lam - u: the inversion u -> lam - u sends w^2 to q^2/w^2."""
    return q * q / w2


def _delta(q, w2):
    """Delta = exp(K2) + Q - 1 = 2 cosh(lam) sinh(2lam-2u)/sinh(lam-2u)."""
    return _exp_K2(q, w2) + _Q(q) - 1


def couplings(sp: SpectralParams) -> CouplingParams:
    """exp(K1) = (w^2/q)(1-q^2/w^2)/(1-w^2), exp(K2) = (1/w^2)(1-q w^2)/(1-q/w^2).

    Raises PoleError near w^2 = 1 (K1 pole) and w^2 = q (K2 pole).  The
    hyperbolic representations are evaluated as an internal consistency
    check; the tolerance widens with pole proximity, where the hyperbolic
    route loses digits to cancellation in lam - 2u.
    """
    q, w2 = sp.q, sp.w2
    _check_pole(w2, 1, "w2=1")
    _check_pole(w2, q, "w2=q")
    eK1, eK2 = _exp_K1(q, w2), _exp_K2(q, w2)
    lam, u = sp.lam, sp.u
    margin = min(abs(w2 - q) / q, abs(1 - w2))
    tol = CROSS_CHECK_RTOL + 1e-15 / max(float(margin), 1e-15)
    h1 = math.sinh(2 * lam - 2 * u) / math.sinh(2 * u)
    h2 = math.sinh(lam + 2 * u) / math.sinh(lam - 2 * u)
    if abs(h1 - eK1) > tol * max(1.0, abs(eK1)) or abs(h2 - eK2) > tol * max(1.0, abs(eK2)):
        raise ArithmeticError("rational and hyperbolic coupling routes disagree")
    x = (w2 - q) / (math.sqrt(q) * (1 - w2))
    return CouplingParams(Q=sp.Q, x=x, eK1=eK1, eK2=eK2)


def inversion_image(sp: SpectralParams) -> SpectralParams:
    """u -> lam - u, i.e. w -> q/w (and s -> q/s on the s-grid)."""
    return SpectralParams(sp.q, sp.q / sp.w)


def rotation_image(sp: SpectralParams) -> SpectralParams:
    """u -> lam/2 - u, i.e. w -> sqrt(q)/w (and s -> 1/s)."""
    return SpectralParams(sp.q, math.sqrt(sp.q) / sp.w)


def solve_q_from_Q(Q):
    """Inverse of Q = q + 2 + 1/q on the branch 0 < q < 1 (requires Q > 4)."""
    if Q <= 4:
        raise DomainError(f"Q must exceed 4, got {Q}")
    b = Q - 2
    return (b - math.sqrt(b * b - 4)) / 2
