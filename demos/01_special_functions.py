"""Tour of the special-function layer.

Run:  python demos/01_special_functions.py
"""

import math

from besselq import (
    ModelOrder,
    bessel_j_zero,
    bessel_j_zeros,
    creep_compliance_laplace,
    fg_from_kelvin,
    fg_series,
    gamma_real,
    kelvin,
    modified_bessel_i,
    tricomi_it,
)

# --- gamma -----------------------------------------------------------------
print("Gamma(1/2)   =", gamma_real(0.5), " (sqrt(pi) =", math.sqrt(math.pi), ")")
print("Gamma(7.5)   =", gamma_real(7.5))

# --- modified Bessel I and its uniform (Tricomi) variant ---------------------
# tricomi_it takes s = z^2 directly, so evaluation at s = i*omega never
# touches a square root; that is what makes the imaginary-axis work below
# branch-free.
print("\nI_0(2)           =", modified_bessel_i(0.0, 2.0))
print("T_0(s=4)         =", tricomi_it(0.0, 4.0 + 0j), " (equals I_0(2))")
print("T_1.5(s=0)       =", tricomi_it(1.5, 0j), " (equals 1/Gamma(2.5))")

# --- the f/g pair: real/imaginary split of T on the imaginary axis ----------
omega = 2.0
pair = fg_series(0.5, omega)
t = tricomi_it(0.5, complex(0.0, omega))
print(f"\nf+ig at omega={omega}:", complex(pair.f, pair.g))
print("T(i*omega)       :", t)

# --- Kelvin functions and the rotation back to f/g ---------------------------
x = math.sqrt(omega)
kp = kelvin(0.5, x)
print(f"\nber/bei(0.5, {x:.4f}) =", (kp.ber, kp.bei))
print("fg_from_kelvin    =", tuple(fg_from_kelvin(0.5, omega))[:2], " (same f, g)")

# Kelvin functions grow like exp(x/sqrt(2)); the large-argument route takes
# over transparently above x = 18
print("ber_0(30)         =", kelvin(0.0, 30.0).ber)

# --- stable modified-Bessel ratios -------------------------------------------
# the ratio I_a / I_{a+2} stays O(1) where the functions themselves overflow;
# it is the compliance combination s J~(s; a) at s = z^2
print("\nI_0/I_2 at z = sqrt(1e6 i):", creep_compliance_laplace(ModelOrder(0.0), 1e6j))

# --- zeros of J_nu ------------------------------------------------------------
print("\nfirst zero of J_0      =", bessel_j_zero(0.0, 1))
print("zeros of J_0.5 are k*pi:", [round(bessel_j_zero(0.5, k), 12) for k in (1, 2, 3)])
# bessel_j_zeros returns a tuple, kept in a per-order memo: a later call
# at the same order reuses these zeros
zeros = bessel_j_zeros(2.0, 10_000)
partial = math.fsum(1.0 / (j * j) for j in zeros)
print("sum 1/j_{2,k}^2 over 1e4 zeros =", partial, " -> 1/(4*3) =", 1.0 / 12.0)
