"""Variational hydrogen levels for two trial families.

At orbital number l (no radial nodes) the exact level is -1/(2(l+1)^2).
Both the Gaussian trial r^l exp(-a r^2) and the Lorentz trial
r^l/(a^2+r^2)^(l+1) give upper bounds whose ratio to the exact level
tends to 1 - and that limit statement is equivalent to the Wallis
product formula for pi.
"""

import math

from wallisqm.variational_engine import (Family, Method, Potential,
                                         variational_energy)

print(f"{'l':>3} {'E_gauss':>14} {'E_lorentz':>14} {'E_exact':>12} "
      f"{'ratio_g':>10} {'ratio_l':>10}")
for l in (0, 1, 2, 3, 5, 10, 20, 50):
    g = variational_energy(Family.GAUSSIAN, Potential.COULOMB, l)
    lo = variational_energy(Family.LORENTZ, Potential.COULOMB, l)
    print(f"{l:>3} {g.value:>14.8f} {lo.value:>14.8f} {g.exact_reference:>12.8f} "
          f"{g.ratio_to_exact:>10.6f} {lo.ratio_to_exact:>10.6f}")

print("\nl = 0 closed forms: -4/(3 pi) and -4/pi^2:")
print("  gaussian:", variational_energy(Family.GAUSSIAN, Potential.COULOMB, 0).value,
      "=", -4.0 / (3.0 * math.pi))
print("  lorentz :", variational_energy(Family.LORENTZ, Potential.COULOMB, 0).value,
      "=", -4.0 / math.pi**2)

# the independent numeric pipeline lands on the same minimum: it integrates
# the scale-free moments K, P, N of <H> by quadrature and takes the optimal
# scale from them by the virial relation, a = 2K/P for the Coulomb potential
est = variational_energy(Family.LORENTZ, Potential.COULOMB, 0, Method.NUMERIC)
print("\nnumeric minimization at l = 0:", est.value,
      " optimal scale:", est.optimal_param, "(pi/4 =", math.pi / 4.0, ")")

# the oscillator is anticlimactic: the Gaussian family contains the exact
# eigenstate, the Lorentz family gives sqrt((l+1)(l+1/2)(l+3/2)/(l-1/2))
g = variational_energy(Family.GAUSSIAN, Potential.HARMONIC_OSCILLATOR, 3)
lo = variational_energy(Family.LORENTZ, Potential.HARMONIC_OSCILLATOR, 3)
print("\noscillator, l = 3: gaussian", g.value, "(exact)  lorentz", lo.value)
