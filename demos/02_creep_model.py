"""Material functions of a Bessel medium: time domain vs Laplace domain.

Run:  python demos/02_creep_model.py
"""

import math

from besselq import (
    ModelOrder,
    creep_compliance_asymptotic,
    creep_compliance_laplace,
    creep_rate_laplace,
    creep_rate_time,
    frac_maxwell_q_inverse,
)
from besselq.checks import creep_rate_laplace_by_zeros

model = ModelOrder(0.0)

# --- rate of creep in the time domain (Talbot inversion) ---------------------
print("Psi(t; nu=0) by Talbot inversion of its Laplace transform:")
for t in (1e-12, 0.01, 0.1, 1.0, 10.0):
    value, inversion = creep_rate_time(model, t)
    print(f"  t={t:<6g} Psi={value:<22.15g} nodes={inversion.nodes} "
          f"est<{inversion.est_rel_error:.1e}")
print("long-time limit 4(nu+1)(nu+2) =", 4.0 * 1.0 * 2.0)
print("short-time growth ~ 2(nu+1)/sqrt(pi t):", 2.0 / math.sqrt(math.pi * 1e-12))

# --- the same object in the Laplace domain -----------------------------------
# each term exp(-j^2 t) of the time series transforms to 1/(s + j^2)
s = 2.0
direct = creep_rate_laplace(model, complex(s, 0.0)).real
by_zeros = creep_rate_laplace_by_zeros(model, s)
print(f"\nPsi~(s={s}) closed form: {direct:.15g}")
print(f"Psi~(s={s}) from 1,000 zeros of J_2, term by term: {by_zeros:.15g}")

# --- creep compliance combination s J~(s) ------------------------------------
print("\ns J~(s; nu=0) = 1 + Psi~(s; nu=0):")
for s in (0.01, 1.0, 100.0):
    sj = creep_compliance_laplace(model, complex(s, 0.0)).real
    print(f"  s={s:<6g} sJ~={sj:.12g}  (1+Psi~ = {1.0 + creep_rate_laplace(model, complex(s,0.0)).real:.12g})")

# --- asymptotic regimes -------------------------------------------------------
print("\nhigh-s expansion at s=1e6:", creep_compliance_asymptotic(model, 1e6 + 0j, "high"))
print("low-s  expansion at s=1e-6:", creep_compliance_asymptotic(model, 1e-6 + 0j, "low"))

# --- fractional Maxwell comparison model --------------------------------------
# beta = 1 is the ordinary Maxwell element; beta = 1/2 matches the Bessel
# class at high frequency (see demo 03)
print("\nfractional Maxwell Q^-1, omega*tau = 2:")
for beta in (0.25, 0.5, 1.0):
    print(f"  beta={beta}: {frac_maxwell_q_inverse(beta, 2.0):.10g}")
print("beta=1 equals 1/(omega*tau) =", 0.5)
