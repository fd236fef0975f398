#!/usr/bin/env python3
"""Kirby diagrams of the surgery and branched-cover cobordisms.

Prints the combinatorial diagrams in their canonical text serialization and
round-trips them through the parser.
"""

from contactcalc.kirby import (branched_cover_diagram, parse_diagram,
                               serialize_diagram, surgery_cobordism_diagram)
from contactcalc.surgery import genus_one_page

# Contact (1/k)-surgery: k = -1 is an honest 2-handle; general k needs a
# dotted 1-handle with the 2-handle running over it twice.
for k in (-1, 2, 3):
    print(f"--- surgery k = {k} ---")
    print(serialize_diagram(surgery_cobordism_diagram(k)))

# The 2-fold cover of a genus-1 open book branched over the binding: one
# dotted handle joining the two copies of the page 0-handle, one 2-handle
# per page 1-handle along c_1 u (-c_2).
page = genus_one_page()
text = serialize_diagram(
    branched_cover_diagram(page, ("L(2,1) as -2 surgery on unknot",), 2))
print("--- 2-fold branched cover ---")
print(text)

# Serialization is canonical: parse and re-serialize byte-exactly.
assert serialize_diagram(parse_diagram(text)) == text
print("round trip: byte-exact")
