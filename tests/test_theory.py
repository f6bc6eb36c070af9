import math
import re

import numpy as np
import pytest

from zoht import theory
from zoht.core import spawn_stream
from zoht.problems import ridge_synthetic
from zoht.theory import (
    TheoryParams,
    alpha,
    complexity_estimate,
    epsilon_constants,
    pm_eta_interval,
    sarah_eta_interval,
    szoht_conditions,
    vrszht_eta_interval,
)


def _tp(**kw):
    base = dict(d=5, n=10, q=200, s2=5, k=3, kstar=1,
                rho_minus=1.0, rho_plus=1.0)
    base.update(kw)
    return TheoryParams(**base)


def test_alpha_pinned_values():
    assert alpha(5, 1) == pytest.approx(2.0, abs=1e-12)
    assert alpha(3, 1) == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-12)
    assert alpha(3, 0) == 1.0
    with pytest.raises(ValueError):
        alpha(3, 3)


def test_alpha_decreasing_in_k():
    values = [alpha(k, 2) for k in range(3, 40)]
    assert np.all(np.diff(values) < 0)


def test_epsilon_pinned_values():
    eps = epsilon_constants(_tp(k=3, kstar=3))
    assert eps.eps_I == pytest.approx(110.0 / 1400.0 + 2.0, abs=1e-9)
    eps2 = epsilon_constants(_tp(k=3, kstar=3, rho_plus=2.0))
    assert eps2.eps_mu == pytest.approx(180.0, abs=1e-9)
    # s2=1 kills the off-support constant
    eps3 = epsilon_constants(_tp(s2=1))
    assert eps3.eps_Ic == 0.0
    with pytest.raises(ValueError):
        epsilon_constants(TheoryParams(d=1, n=2, q=5, s2=1, k=1, kstar=0,
                                       rho_minus=1.0, rho_plus=1.0))


def test_epsilon_monotone_in_q_and_limits():
    qs = [1, 3, 10, 40, 150, 600, 2500, 10_000]
    eps_list = [epsilon_constants(_tp(q=q)) for q in qs]
    for field in ("eps_I", "eps_Ic", "eps_abs"):
        vals = [getattr(e, field) for e in eps_list]
        assert np.all(np.diff(vals) <= 0)
        assert all(v >= 0 for v in vals)
    assert all(e.eps_mu > 0 and e.eps_I > 0 and e.eps_abs > 0 for e in eps_list)
    big = epsilon_constants(_tp(q=100_000_000))
    assert abs(big.eps_I - 2.0) < 1e-3
    assert abs(big.eps_Ic) < 1e-3


def test_szoht_q_lower_s2_1():
    tp = _tp(d=100, s2=1, k=10, kstar=4)
    _, _, q_lower = szoht_conditions(tp)
    assert q_lower == pytest.approx(800.0 / math.sqrt(26.0), abs=1e-9)


def test_szoht_bounds_vanish_at_kstar_zero():
    k_lo, _, q_lower = szoht_conditions(_tp(d=20, k=3, kstar=0))
    assert (k_lo, q_lower) == (0.0, 0.0)


def test_szoht_k_interval_can_be_empty():
    # d=10, kstar=4: upper bound (d-kstar)/2 = 3 < lower bound for kappa>1
    tp = _tp(d=10, s2=5, k=5, kstar=4, rho_plus=1.5)
    k_lo, k_hi, _ = szoht_conditions(tp)
    assert k_hi == 3.0
    assert k_lo > k_hi


def test_szoht_k_lower_limit_kappa_1():
    # with kappa = 1 the factor (1 - 1/(4 eps_I + 1)) drives k_lower to
    # kstar * (4 eps_I + 1)^2 * (1 - 1/(4 eps_I + 1)); as eps_I -> 0 the
    # whole bound collapses to 0
    tp = _tp(d=50, s2=50, q=10_000_000, k=10, kstar=1)
    eps = epsilon_constants(tp)
    k_lo, _, _ = szoht_conditions(tp)
    # eps_I -> 2 as q -> inf, so the limit formula with kappa=1:
    expected = 1 * (4 * eps.eps_I + 1) ** 2 * (1 - 1 / (4 * eps.eps_I + 1))
    assert k_lo == pytest.approx(expected, rel=1e-12)


def test_pm_interval_pinned_empty():
    tp = _tp(d=100, s2=5, k=5, kstar=1, p=10, n=10)
    iv = pm_eta_interval(tp, eps_I=2.1)
    assert iv.discriminant == pytest.approx(16.0 - 8.0 * 202.6, abs=1e-9)
    assert not iv.nonempty
    assert math.isnan(iv.lo) and math.isnan(iv.hi)


def test_pm_interval_nonempty_and_roots_satisfy_quadratic():
    # with p = n the constant term is 2/rho_minus; the discriminant turns
    # positive once alpha clears ~2(48 eps_I + 1), which takes k barely
    # above a large kstar
    tp = _tp(d=30_100, s2=5, q=1_000_000, k=10_001, kstar=10_000, p=10, n=10)
    iv = pm_eta_interval(tp)
    assert iv.nonempty and iv.discriminant > 0
    a, b, c = iv.coeffs
    for root in iv.roots:
        assert abs(a * root * root + b * root + c) <= 1e-9
    assert iv.lo == iv.roots[0]
    assert iv.hi >= iv.roots[1]  # upper endpoint may be the relaxed cap


def test_pm_interval_upper_endpoint_edges():
    # alpha = 193 (k = kstar + 1, sqrt(kstar) = 96), p = n and rho = 2
    # make the pm quadratic (18528 eps_I + 2) eta^2 - 386 eta + 1, with a
    # double root at eps_I = 37247/18528 and the relaxed cap 1/(96 eps_I)
    tp = _tp(d=30_000, k=9217, kstar=9216, rho_minus=2.0, rho_plus=2.0, p=10, n=10)
    double_root = 37247 / 18528

    def cap(eps_I):
        return 1.0 / (48.0 * eps_I * tp.rho_plus)

    # root side: the upper root clears the cap
    iv = pm_eta_interval(tp, eps_I=2.0)
    assert iv.roots[1] > cap(2.0)
    assert (iv.lo, iv.hi) == iv.roots
    # cap side: just below the double root both roots sit under the cap,
    # which becomes the upper endpoint
    eps_I = double_root - 1e-9
    iv = pm_eta_interval(tp, eps_I=eps_I)
    assert iv.discriminant > 0 and iv.roots[1] < cap(eps_I)
    assert iv.lo == iv.roots[0] and iv.hi == cap(eps_I)
    # a double root is not an interval
    iv = pm_eta_interval(tp, eps_I=double_root)
    assert iv.discriminant == 0.0 and iv.roots[0] == iv.roots[1]
    assert not iv.nonempty
    assert math.isnan(iv.lo) and math.isnan(iv.hi)


def test_pm_interval_requires_p():
    with pytest.raises(ValueError):
        pm_eta_interval(_tp())


def test_vr_interval_pinned_empty_and_recommendation():
    tp = _tp(d=300, s2=5, k=101, kstar=1)
    iv, rec = vrszht_eta_interval(tp, eps_I=2.1)
    assert iv.discriminant == pytest.approx(1.44 - 4.0 * 121.96 * 0.2, abs=1e-9)
    assert not iv.nonempty
    assert rec == pytest.approx(1.2 / (2.0 * 121.96), rel=1e-12)


def test_vr_interval_kstar_zero():
    iv, rec = vrszht_eta_interval(_tp(d=20, k=3, kstar=0))
    assert iv.nonempty
    assert iv.lo == 0.0
    a, b, c = iv.coeffs
    assert rec == pytest.approx(-b / (2.0 * a), rel=1e-12)  # vertex
    for root in iv.roots:
        assert abs(a * root * root + b * root + c) <= 1e-9


def test_vr_interval_upper_endpoint_edges(monkeypatch):
    cap = 1.0 / (48.0 * 2.0 * 1.0)
    # root side: at kstar = 0 the roots are 0 and 1/(48 eps_I rho_plus +
    # rho_minus), below the cap
    iv, _ = vrszht_eta_interval(_tp(d=20, k=3, kstar=0), eps_I=2.0)
    assert iv.roots[1] < cap
    assert (iv.lo, iv.hi) == iv.roots
    # cap side: no valid TheoryParams reaches it, since the upper root is
    # below alpha rho_minus / leading < 1/(48 eps_I rho_plus); check the
    # upper rule vrszht_eta_interval hands to _root_interval instead
    seen = {}
    root_interval = theory._root_interval

    def spy(a, b, c, **kw):
        seen.update(kw)
        return root_interval(a, b, c, **kw)

    monkeypatch.setattr(theory, "_root_interval", spy)
    vrszht_eta_interval(_tp(d=20, k=3, kstar=1), eps_I=2.0)
    assert seen["upper"](2.0 * cap) == cap
    assert seen["upper"](0.5 * cap) == 0.5 * cap


def test_sarah_interval_roots_and_kstar_zero():
    iv = sarah_eta_interval(_tp(d=20, k=3, kstar=0))
    assert iv.lo == 0.0
    a, b, c = iv.coeffs
    for root in iv.roots:
        assert abs(a * root * root + b * root + c) <= 1e-9


def test_sarah_interval_width_monotone_in_q():
    widths = []
    for q in (10, 50, 200, 1000, 5000):
        iv = sarah_eta_interval(_tp(d=30, s2=10, k=9, kstar=1, q=q))
        widths.append(iv.hi - iv.lo if iv.nonempty else 0.0)
    assert np.all(np.diff(widths) >= 0)


def test_complexity_estimate():
    tp = _tp(n=7)
    zo_q, ht_q = complexity_estimate(tp, 1.0)
    assert zo_q == 0.0 and ht_q == 0.0
    zo_q, ht_q = complexity_estimate(tp, math.exp(-1.0))
    assert zo_q == pytest.approx(7.5, rel=1e-12)  # kappa=1: n + 1/2 per log
    assert ht_q == pytest.approx(1.0, rel=1e-12)
    big = _tp(rho_plus=1000.0)
    zo_q, _ = complexity_estimate(big, 1e-6)
    ratio = zo_q / ((big.n + big.kappa) * math.log(1e6))
    assert abs(ratio - 1.0) <= 1e-3
    with pytest.raises(ValueError):
        complexity_estimate(tp, 1.5)


def test_ridge_rho_bounds_proxy():
    problem = ridge_synthetic(12, 4, 0.3, spawn_stream(3, "data-gen"))
    lo, hi = problem.rho_bounds()
    assert hi >= lo > 0.0
    hess = (2.0 / problem.n) * (problem.X.T @ problem.X) + problem.lam * np.eye(4)
    v = spawn_stream(4, "data-gen").standard_normal(4)
    rayleigh = float(v @ hess @ v) / float(v @ v)
    assert lo - 1e-9 <= rayleigh <= hi + 1e-9


def test_theory_params_validation():
    with pytest.raises(ValueError):
        _tp(kstar=5)  # k < kstar
    with pytest.raises(ValueError):
        _tp(rho_minus=2.0, rho_plus=1.0)
    with pytest.raises(ValueError):
        _tp(s2=9)
    with pytest.raises(ValueError, match="p=11 n=10"):
        _tp(p=11)


@pytest.mark.parametrize("name", ["d", "n", "q", "s2", "k", "kstar", "p"])
def test_theory_params_refuse_non_integers(name):
    value = {"d": 5.5, "n": 10.0, "q": 200.5, "s2": 5.0, "k": 3.0, "kstar": 1.0,
             "p": 1.5}[name]
    message = "%s must be an integer, got %r" % (name, value)
    with pytest.raises(ValueError, match=re.escape(message)):
        _tp(**{name: value})
