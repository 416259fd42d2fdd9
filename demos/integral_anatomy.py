"""Where the Wallis ratio hides inside the radial integrals.

Every integral the two trial functions need reduces to a gamma-function
expression carrying W_l = (2l-1)!!/(2l)!!:

    G_{l+1} = int dx/(1+x^2)^{l+1}          = (pi/2) W_l
    I_{2l+2,2l+2} (Lorentz normalization)   = pi W_l / 2^{2l+2}
    I_{2l+1,2l+2} (Lorentz Coulomb term)    = (l!)^2 / (2 (2l+1)!)

and their quotient 1/((l+1/2) pi W_l^2) puts the *squared* Wallis ratio
into the potential-energy expectation value.  A semi-infinite quadrature
engine certifies each closed form independently.
"""

import math

from wallisqm.gamma_kit import wallis_ratio
from wallisqm.integral_kit import (G_rational, coulomb_to_norm_ratio,
                                   lorentz_coulomb_integral,
                                   lorentz_norm_integral, quad_semiinfinite)

print(f"{'l':>3} {'G_(l+1)':>14} {'(pi/2) W_l':>14} {'norm':>14} {'coulomb':>14} "
      f"{'quotient':>12}")
for l in range(0, 8):
    g = G_rational(l)
    print(f"{l:>3} {g:>14.10f} {math.pi/2*wallis_ratio(l):>14.10f} "
          f"{lorentz_norm_integral(l):>14.10f} {lorentz_coulomb_integral(l):>14.10f} "
          f"{coulomb_to_norm_ratio(l):>12.8f}")

print("\nquadrature certification at l = 4:")
for name, closed, f in (
    ("rational G", G_rational(4), lambda x: (1.0 + x * x) ** -5.0),
    ("norm", lorentz_norm_integral(4), lambda x: x**10 / (1.0 + x * x) ** 10),
    ("coulomb", lorentz_coulomb_integral(4), lambda x: x**9 / (1.0 + x * x) ** 10),
):
    res = quad_semiinfinite(f)
    print(f"  {name:<10} closed {closed:.12e}  quad {res.value:.12e} "
          f"({res.evaluations} evaluations, est {res.abs_error_estimate:.1e})")

# the quotient at l = 0 and l = 1 are the hydrogen ratio values 2/pi and
# 8/(3 pi) seen in the variational levels
print("\nquotients:", coulomb_to_norm_ratio(0), "= 2/pi,",
      coulomb_to_norm_ratio(1), "= 8/(3 pi)")
