#!/usr/bin/env python3
"""Walk through the numerical kernel on the model forms.

Evaluates the catalog 1-forms, recovers their Liouville / Reeb / Hamiltonian
vector fields by linear solves against finite-difference exterior
derivatives, and checks contact positivity on a few charts.
"""

import numpy as np

from contactcalc import (check_contact_condition, dz_plus, eval_one_form,
                         hamiltonian_vector_field, lambda_can, lambda_std,
                         liouville_vector_field, reeb_vector_field, weinstein,
                         weinstein_hamiltonian)
from contactcalc.charts import darboux_chart, unit_norm_constraint, \
    with_constraints
from contactcalc.forms import restrict_form

rng = np.random.default_rng(0)
n = 2

# The standard radial Liouville form on R^4: its Liouville vector field is
# half the radial field.
lam = lambda_std(n)
p = lam.chart.point(rng.uniform(-1, 1, 2 * n))
print("lambda_std at", p.coords, "->", eval_one_form(lam, p))
print("Liouville field:", liouville_vector_field(lam, p))
print("half radial:    ", 0.5 * p.coords)

# The canonical form p dq on a cotangent chart.
can = lambda_can(n)
q = can.chart.point(rng.uniform(-1, 1, 2 * n))
print("\nLiouville field of p dq:", liouville_vector_field(can, q),
      "(expected: (0, p))")

# A collar contact form dz + beta has Reeb field d/dz.
alpha = dz_plus(lam)
r = reeb_vector_field(alpha, alpha.chart.point(rng.uniform(-1, 1, 2 * n + 1)))
print("\nReeb field of dz + lambda_std:", r)

# The handle Liouville form tilts the first k coordinate pairs; its
# Liouville field is the radial/2 field plus the Hamiltonian field of
# f_k = sum_{j<=k} x_j y_j.
k = 1
w = weinstein(n, k)
xf = hamiltonian_vector_field(weinstein_hamiltonian(n, k), lam, p)
print("\nHamiltonian field of f_1:", xf)
print("Liouville field of the handle form:", liouville_vector_field(w, p))
print("sum of the two pieces:            ",
      liouville_vector_field(lam, p) + xf)

# Contact positivity: alpha ^ (d alpha)^n > 0 on samples, both on the flat
# collar chart and for lambda_std restricted to the unit sphere S^3.
pts = [alpha.chart.point(rng.uniform(-1, 1, 2 * n + 1)) for _ in range(25)]
print("\ncontact check, dz + lambda_std:", check_contact_condition(alpha, pts))

sph = with_constraints(darboux_chart(n), [unit_norm_constraint(range(2 * n))],
                       "S3_xy")
on_sphere = restrict_form(lam, sph)
spts = []
for _ in range(25):
    x = rng.normal(size=2 * n)
    spts.append(sph.point(x / np.linalg.norm(x)))
print("contact check, lambda_std | S^3:",
      check_contact_condition(on_sphere, spts))
