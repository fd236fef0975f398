#!/usr/bin/env python3
"""Generalized Dehn twists on D*S^n, numerically.

Applies the twist through its two evaluation paths, verifies that it
preserves the symplectic form by pulling back -d(lambda_can) on tangent
frames, and runs the square-trivializing isotopies for n = 2 (the n = 6
story is identical with the octonionic cross product).
"""

import numpy as np

from contactcalc.twist import (CotangentPoint, apply_twist,
                               apply_twist_via_generator,
                               boundary_displacement_probe, isotopy_phi,
                               isotopy_psi, plane_generator, pullback_two_form,
                               random_points, twist_square_direct)

# The twist's profile angle is pi at the zero section and 2 pi outside the
# fiber radius twist.EPSILON = 0.4.
rng = np.random.default_rng(0)

# The zero section goes to the antipodal map ...
u = np.array([1.0, 0.0, 0.0])
out = apply_twist(CotangentPoint(u, np.zeros(3)))
print("tau(u, 0) =", out.u, out.v)

# ... and nothing happens outside the support.
far = random_points(rng, 2, 1.0, 1)
far = CotangentPoint(far.u, far.v / np.linalg.norm(far.v, axis=-1, keepdims=True))
moved = apply_twist(far)
print("displacement at |v| = 1:",
      np.max(np.abs(moved.coords - far.coords)))

# Two independent evaluation paths agree: the explicit rotation formula and
# the closed-form exponential of the plane generator A, which satisfies
# A^3 = -A.
cubic = 0.0
for n in (1, 2, 3, 6):
    q = random_points(rng, n, 0.9, 25)
    dev = np.max(np.abs(apply_twist(q).coords
                        - apply_twist_via_generator(q).coords))
    print(f"n={n}: two-path deviation {dev:.2e}")
    a = plane_generator(q)
    cubic = max(cubic, np.max(np.abs(a @ a @ a + a)))
print(f"plane generators: max |A^3 + A| {cubic:.2e}")

# The twist is a symplectomorphism: pull back -d(lambda_can) on an
# orthonormal tangent frame and compare entrywise.
for n in (1, 2, 3, 6):
    q = random_points(rng, n, 0.9, 10)
    worst = pullback_two_form(apply_twist, q).max_deviation
    print(f"n={n}: pullback deviation {worst:.2e}")

# For n = 2 the square of the twist deforms to the identity through the
# family Phi_t built from the fiberwise almost-complex rotation j_u.
n = 2
q = random_points(rng, n, 0.5, 1)
a = isotopy_phi(1.0, q).coords
b = twist_square_direct(q).coords
print(f"\nPhi_1 vs tau^2: {np.max(np.abs(a - b)):.2e}")
print("Psi_0 = id:", np.max(np.abs(isotopy_psi(0.0, q).coords
                                   - q.coords)))

# The interior-t maps are measured (not asserted) on the boundary |v| = 1.
probe = boundary_displacement_probe(n, seed=0)
print(f"boundary displacement of Phi_t: max {probe.max_displacement:.3f} "
      f"at t = {probe.argmax_t:.2f} (measured only)")
