"""The Bessel-trial lower bound, step by step, for (n, a, d) = (1, 1, 1).

The trial function is the inverse transform of (1 + |k|^2/lam^2)^(-n);
in one dimension with n = 1 it is sqrt(pi/2) exp(-lam |x|) and every norm
is elementary:

    |f|_1^2     = (pi/2)(lam + 1/lam)
    |f^2|_1^2   = (pi^2/4)(2 lam + 1/(2 lam))

The bound is the ratio |f^2|_1 / |f|_1^2 maximized over lam; the
maximizer has the exact radical form sqrt(9 + sqrt(97))/(2 sqrt(2)).
The same machinery runs for (2, 2, 2) and (2, 2, 3), where the square's
norm needs the hypergeometric integrand.
"""

import math

from sobprod import BesselTrial, bessel_lower, bessel_ratio
from sobprod.bessel_lb import bessel_norm_n, bessel_square_norm

print("ratio profile for (1, 1, 1):")
print(f"{'lam':>6} {'ratio':>10}")
for lam in (0.5, 1.0, 1.3, 1.5349616364015464, 1.8, 2.5, 4.0):
    print(f"{lam:6.3f} {bessel_ratio(lam, 1.0, 1.0, 1):10.6f}")

bound, lam_star = bessel_lower(1.0, 1.0, 1)
exact = math.sqrt(9.0 + math.sqrt(97.0)) / (2.0 * math.sqrt(2.0))
print(f"\nmaximizer lam* = {lam_star:.8f}  (exact radical {exact:.8f})")
print(f"bound K(1,1,1) >= {bound:.6f}")

print("\nnorm machinery at lam = 1.2, (n, d) = (1, 1):")
t = BesselTrial(1.2, 1.0, 1)
print(f"  |f|_1^2 Beta sum    = {bessel_norm_n(t):.12f}")
print(f"  |f|_1^2 closed      = {math.pi / 2 * (1.2 + 1 / 1.2):.12f}")
print(f"  |f^2|_1^2 general   = {bessel_square_norm(t):.12f}")
print(f"  |f^2|_1^2 closed    = {math.pi**2 / 4 * (2.4 + 1 / 2.4):.12f}")

for n, a, d in ((2.0, 2.0, 2), (2.0, 2.0, 3)):
    bound, lam_star = bessel_lower(n, a, d)
    print(f"\n(n, a, d) = ({n:g}, {a:g}, {d}):  K >= {bound:.6f} at lam* = {lam_star:.4f}")
