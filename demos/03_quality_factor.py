"""The quality factor: one production route, two verification routes,
and the asymptotes.

Run:  python demos/03_quality_factor.py
"""

import math

from besselq import (
    ModelOrder,
    frac_maxwell_q_inverse,
    q_inverse,
    q_inverse_asymptotic,
    q_inverse_fg,
    q_inverse_kelvin,
)

model = ModelOrder(0.0)

# --- three routes, one number --------------------------------------------------
omega = 1.0
print(f"Q^-1(omega=1, nu=0) by route:")
for fn in (q_inverse_fg, q_inverse_kelvin, q_inverse):
    ev = fn(model, omega)
    print(f"  {ev.route:<12s} {ev.q_inverse:.15f}   est rel err {ev.est_rel_error:.1e}")

# --- one route for every frequency ------------------------------------------------
print("\nq_inverse from omega = 1e-30 to 1e12:")
for omega in (1e-30, 1e-3, 1.0, 324.0, 1e6, 1e12):
    ev = q_inverse(model, omega)
    print(f"  omega={omega:<8g} Q^-1={ev.q_inverse:<12.6g} route={ev.route:<12s} est={ev.est_rel_error:.1e}")

# --- asymptotic regimes ----------------------------------------------------------
print("\nlow-frequency Maxwell behaviour, Q^-1 ~ 2(nu+1)(nu+3)/omega:")
for omega in (1e-3, 1e-4):
    q = q_inverse(model, omega).q_inverse
    print(f"  omega={omega:g}: Q^-1={q:.6g} vs asymptote {q_inverse_asymptotic(model, omega, 'low'):.6g}")

print("\nhigh-frequency half-order fractional-Maxwell behaviour:")
for nu in (0.0, 2.0):
    m = ModelOrder(nu)
    tau = 1.0 / (4.0 * (nu + 1.0) ** 2)  # matching time scale
    omega = 1e6
    print(
        f"  nu={nu}: Q^-1={q_inverse(m, omega).q_inverse:.6g}, "
        f"asymptote={q_inverse_asymptotic(m, omega, 'high'):.6g}, "
        f"frac-Maxwell(beta=1/2, tau={tau:g})={frac_maxwell_q_inverse(0.5, omega * tau):.6g}"
    )

# --- Q^-1 is decreasing in omega and increasing in nu ----------------------------
print("\nQ^-1 at omega=10 for increasing nu:")
for nu in (-0.5, 0.0, 1.0, 3.5, 10.0):
    print(f"  nu={nu:<5g} Q^-1={q_inverse(ModelOrder(nu), 10.0).q_inverse:.6g}")
