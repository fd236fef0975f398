#!/usr/bin/env python3
"""Handle bookkeeping and the classification fact tables.

Converts page handle decompositions into cobordism handles, tracks Euler
characteristics and the Stein index bound, and prints the homology of unit
cotangent bundles of spheres together with the twist-square triviality
table.
"""

from contactcalc.cobordism import (Handle, euler_characteristic,
                                   gysin_sphere_bundle_homology,
                                   hopf_invariant_one_exists,
                                   self_linking_liouville,
                                   stein_homology_check, sum_cobordism,
                                   twist_square_smoothly_trivial)
from contactcalc.surgery import disk_cotangent_page, genus_one_page

# Each page k-handle becomes an ambient (k+1)-handle of the sum cobordism.
page = disk_cotangent_page(1)            # D*S^1: one 0- and one 1-handle
handles = sum_cobordism(page)
print("D*S^1 page ->", [(h.ambient_dim, h.index) for h in handles])

genus1 = genus_one_page()
h1 = sum_cobordism(genus1)
print("genus-1 page ->", sorted(h.index for h in h1),
      "| chi contribution:", euler_characteristic(0, h1))
print("self-linking of its transverse boundary: sl = -chi =",
      self_linking_liouville(-1))

# The Stein bound: handle indices at most half the ambient dimension.
print("\nStein index check (4d, indices 1,2):",
      stein_homology_check(h1, 1))
print("Stein index check (6d, one 4-handle):",
      stein_homology_check([Handle(6, 4)], 2))

# Homology of S*S^{n+1} from the Gysin sequence: a Z/2 in the middle for
# odd n, product ranks for even n.
for n in (1, 2, 3):
    print(f"\nH_*(S*S^{n + 1}):", gysin_sphere_bundle_homology(n))

# The square of the twist is smoothly trivial rel boundary exactly for
# n in {2, 6} -- the even n with n+1 a Hopf-invariant-one dimension.
table = [n for n in range(1, 17) if twist_square_smoothly_trivial(n)]
print("\ntwist square smoothly trivial for n =", table)
print("Hopf invariant one dimensions:",
      [d for d in range(1, 17) if hopf_invariant_one_exists(d)])
