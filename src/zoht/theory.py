"""Closed-form constants and admissibility conditions for the solver
family: the hard-thresholding expansivity factor, the second-moment
envelope constants of the sparse-direction estimator, the plain-solver
(k, q) restrictions, learning-rate intervals for each variance-reduced
solver, and query-complexity estimates.

Every function is a direct evaluation of a published closed form; nothing
here runs an optimizer. One transcription note: the epsilon constant for
the off-support block is computed with denominator (d - 1), matching the
on-support constant by symmetry (the source displays a bare "-1", an
evident misprint). Every meta.txt the harness emits flags this, whether
or not the run used the constant.
"""

import math
from dataclasses import dataclass

from .core import require_numbers

EPS_IC_TYPO_NOTE = "eps_Ic uses (d-1) denominator (misprint correction)"


@dataclass
class TheoryParams:
    d: int
    n: int
    q: int
    s2: int
    k: int
    kstar: int
    rho_minus: float
    rho_plus: float
    p: int = None   # memory update rate, where applicable

    def __post_init__(self):
        require_numbers(d=self.d, s2=self.s2, k=self.k, kstar=self.kstar, integer=True)
        require_numbers(n=self.n, q=self.q, integer=True, least=1)
        require_numbers(p=self.p, integer=True, optional=True)
        require_numbers(rho_minus=self.rho_minus, rho_plus=self.rho_plus)
        if not 1 <= self.s2 <= self.d:
            raise ValueError("need 1 <= s2 <= d, got s2=%s d=%s" % (self.s2, self.d))
        if self.kstar < 0 or self.k < self.kstar:
            raise ValueError("need k >= kstar >= 0, got k=%s kstar=%s" % (self.k, self.kstar))
        if not (self.rho_plus >= self.rho_minus > 0):
            raise ValueError("need rho_plus >= rho_minus > 0, got rho_plus=%s rho_minus=%s"
                             % (self.rho_plus, self.rho_minus))
        if self.p is not None and not 1 <= self.p <= self.n:
            raise ValueError("need 1 <= p <= n, got p=%d n=%d" % (self.p, self.n))

    @property
    def s(self):
        """Sparsity level of the smoothness assumption: 2k + kstar."""
        return 2 * self.k + self.kstar

    @property
    def kappa(self):
        return self.rho_plus / self.rho_minus


@dataclass
class EtaInterval:
    lo: float
    hi: float
    nonempty: bool
    discriminant: float
    # Defining quadratic a*eta^2 + b*eta + c and its roots (when real),
    # exposed for residual checks; the interval may cap hi away from a root.
    coeffs: tuple = None
    roots: tuple = None


def alpha(k, kstar):
    """Hard-thresholding expansivity factor 1 + 2*sqrt(kstar)/sqrt(k - kstar)."""
    if not k > kstar >= 0:
        raise ValueError("need k > kstar >= 0, got k=%d kstar=%d" % (k, kstar))
    return 1.0 + 2.0 * math.sqrt(kstar) / math.sqrt(k - kstar)


@dataclass
class EpsilonConstants:
    eps_mu: float
    eps_I: float
    eps_Ic: float
    eps_abs: float


def epsilon_constants(tp):
    """Second-moment envelope constants of the sparse-direction estimator.

    With s = 2k + kstar:
        eps_mu  = rho_plus^2 * s * d
        eps_I   = (2d / (q (s2+2))) * ((s-1)(s2-1)/(d-1) + 3) + 2
        eps_Ic  = (2d / (q (s2+2))) * (s (s2-1) / (d-1))
        eps_abs = (2d rho_plus^2 s s2 / q) * ((s-1)(s2-1)/(d-1) + 1)
                  + rho_plus^2 * s * d
    """
    if tp.d < 2:
        raise ValueError("need d >= 2 (formulas divide by d - 1)")
    d, q, s2, s = tp.d, tp.q, tp.s2, tp.s
    rp2 = tp.rho_plus ** 2
    lead = 2.0 * d / (q * (s2 + 2))
    eps_mu = rp2 * s * d
    eps_I = lead * ((s - 1) * (s2 - 1) / (d - 1) + 3.0) + 2.0
    eps_Ic = lead * (s * (s2 - 1) / (d - 1))
    eps_abs = (2.0 * d * rp2 * s * s2 / q) * ((s - 1) * (s2 - 1) / (d - 1) + 1.0) + rp2 * s * d
    return EpsilonConstants(eps_mu, eps_I, eps_Ic, eps_abs)


def szoht_conditions(tp):
    """(k_lower, k_upper, q_lower) admissibility bounds of the plain
    single-estimate solver. The k interval may well be empty; that is the
    point the variance-reduced variants address.
    """
    kappa = tp.kappa
    kstar = tp.kstar
    eps_I = epsilon_constants(tp).eps_I
    k_lower = (
        kstar
        * (4.0 * eps_I + 1.0) ** 2
        * kappa ** 4
        * (1.0 - 1.0 / (kappa ** 2 * (4.0 * eps_I + 1.0)))
    )
    k_upper = (tp.d - kstar) / 2.0
    if kstar == 0:
        q_lower = 0.0
    elif tp.s2 == 1:
        q_lower = 8.0 * kappa ** 2 * tp.d / math.sqrt(tp.d / kstar + 1.0)
    else:
        d, s2 = tp.d, tp.s2
        inner = (
            9.0 * kappa ** 2 * (9.0 * kappa ** 2 - 1.0)
            + 0.5
            - 0.5 / kstar
            + 1.5 * (d - 1) / (kstar * (s2 - 1))
        )
        q_lower = (
            16.0 * d * (s2 - 1) * kstar * kappa ** 2 / ((s2 + 2) * (d - 1))
        ) * (18.0 * kappa ** 2 - 1.0 + 2.0 * math.sqrt(inner))
    return k_lower, k_upper, q_lower


def _root_interval(a, b, c, upper=lambda hi: hi, need_two_roots=False):
    """EtaInterval between the roots of a*eta^2 + b*eta + c (a > 0), the
    upper root passed through ``upper``. Empty, with nan endpoints, when
    the discriminant is negative, or zero with ``need_two_roots``; ``roots``
    is None exactly when the discriminant is negative."""
    disc = b * b - 4.0 * a * c
    roots = None
    lo = hi = math.nan
    if not disc < 0:
        root = math.sqrt(disc)
        roots = ((-b - root) / (2.0 * a), (-b + root) / (2.0 * a))
        if disc > 0 or not need_two_roots:
            lo, hi = roots[0], upper(roots[1])
    return EtaInterval(
        lo=lo, hi=hi, nonempty=lo <= hi, discriminant=disc,
        coeffs=(a, b, c), roots=roots,
    )


def pm_eta_interval(tp, eps_I=None):
    """Learning-rate interval for the memory-table solver.

    Derived from the quadratic A eta^2 - 2 alpha eta + C < 0 with
    A = 48 eps_I alpha rho_plus + rho_minus and C = 1 - p/n + 2/rho_minus;
    empty whenever the discriminant 4 alpha^2 - 4 A C is nonpositive.
    The upper endpoint is relaxed to 1/(48 eps_I rho_plus) when that cap
    exceeds the upper root.
    """
    if tp.p is None:
        raise ValueError("memory update rate p is required for this interval")
    if eps_I is None:
        eps_I = epsilon_constants(tp).eps_I
    a = alpha(tp.k, tp.kstar)
    return _root_interval(
        48.0 * eps_I * a * tp.rho_plus + tp.rho_minus,
        -2.0 * a,
        1.0 - tp.p / tp.n + 2.0 / tp.rho_minus,
        upper=lambda hi: max(hi, 1.0 / (48.0 * eps_I * tp.rho_plus)),
        need_two_roots=True,
    )


def vrszht_eta_interval(tp, eps_I=None):
    """(interval, recommended_eta) for the snapshot solver.

    Quadratic: (48 eps_I alpha rho_minus rho_plus + rho_minus^2) eta^2
               - alpha rho_minus eta + (alpha - 1) < 0,
    upper endpoint capped at 1/(48 eps_I rho_plus). The recommendation is
    the quadratic's vertex alpha rho_minus / (2 * leading), returned even
    when the interval is empty.
    """
    if eps_I is None:
        eps_I = epsilon_constants(tp).eps_I
    a = alpha(tp.k, tp.kstar)
    rm, rp = tp.rho_minus, tp.rho_plus
    lead = 48.0 * eps_I * a * rm * rp + rm ** 2
    recommended = a * rm / (2.0 * lead)
    interval = _root_interval(
        lead, -a * rm, a - 1.0, upper=lambda hi: min(hi, 1.0 / (48.0 * eps_I * rp))
    )
    return interval, recommended


def sarah_eta_interval(tp, eps_I=None):
    """Learning-rate interval for the recursive-estimate solver:
    roots of (48 eps_I alpha rho_plus + alpha rho_minus) eta^2
             - alpha eta + (alpha - 1).
    """
    if eps_I is None:
        eps_I = epsilon_constants(tp).eps_I
    a = alpha(tp.k, tp.kstar)
    lead = 48.0 * eps_I * a * tp.rho_plus + a * tp.rho_minus
    return _root_interval(lead, -a, a - 1.0)


def complexity_estimate(tp, target_eps):
    """(zo_queries, ht_ops) with unit constants:
    zo = (n + kappa^3/(kappa^2 + 1)) * log(1/eps), ht = log(1/eps).
    """
    if not 0 < target_eps <= 1:
        raise ValueError("target_eps must lie in (0, 1]")
    log_factor = math.log(1.0 / target_eps)
    kappa = tp.kappa
    zo_queries = (tp.n + kappa ** 3 / (kappa ** 2 + 1.0)) * log_factor
    return zo_queries, log_factor
