"""Three classical ways to pin down Gamma(x+1)/Gamma(x+1/2).

The ratio behaves like sqrt(x); the double inequalities make the limit
arguments behind the Wallis product elementary:

    sqrt(n+1/4) < Gamma(n+1)/Gamma(n+1/2) < sqrt(n+1/2)
    (x^2+x/2+1/8-1/(128x))^(1/4) < ratio < (x^2+x/2+1/8)^(1/4)
    Gamma(x+s)/(x^s Gamma(x)) -> 1
"""

from wallisqm.gamma_kit import (kazarinoff_bounds, quartic_root_bounds,
                                wendel_deviation)

print("square-root sandwich:")
print(f"{'n':>8} {'lower':>16} {'ratio':>16} {'upper':>16} {'width/value':>12}")
for n in (1, 10, 100, 10_000, 1_000_000):
    t = kazarinoff_bounds(n)
    print(f"{n:>8} {t.lower:>16.10f} {t.value:>16.10f} {t.upper:>16.10f} "
          f"{(t.upper - t.lower) / t.value:>12.2e}")

print("\nquartic-root sandwich (tighter; width ~ 1/(512 x^3)):")
print(f"{'x':>8} {'lower':>16} {'ratio':>16} {'upper':>16} {'satisfied':>10}")
for x in (0.2, 1.0, 10.0, 100.0, 1e5):
    t = quartic_root_bounds(x)
    print(f"{x:>8g} {t.lower:>16.12f} {t.value:>16.12f} {t.upper:>16.12f} "
          f"{str(t.satisfied):>10}")
# past x ~ 5e3 the three doubles above print identically; past x = 300 the
# satisfied flag states the inequality, proven once for every x > 300 in
# exact arithmetic, and does not test the printed triple.

print("\nratio-drift deviation Gamma(x+s)/(x^s Gamma(x)) - 1 at s = 1/2:")
for x in (10.0, 100.0, 1e3, 1e4, 1e5, 1e6):
    print(f"  x = {x:>9g}:  {wendel_deviation(x, 0.5):+.3e}")
