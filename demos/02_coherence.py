"""
Pentagon and hexagon validation
===============================

Category data carries F-symbols (associators) and optionally R-symbols
(braidings).  The validators check every multiplicity-free pentagon and
hexagon instance and report violations with their indices.
"""

import dataclasses

from tensorcat import (FSymbolSet, catalog_category, catalog_names,
                       pointed_from_quadratic_form, QuadraticForm, verify_hexagon,
                       verify_pentagon)

for name in catalog_names():
    cd = catalog_category(name)
    print(f"{name:12s} pentagon violations: {len(verify_pentagon(cd))}, "
          f"hexagon violations: {len(verify_hexagon(cd))}")

# a single corrupted F-symbol is located precisely; symbol sets are
# immutable, so the corrupted copy carries a replacement F
fib = catalog_category("fibonacci")
key = (1, 1, 1, 1, 1, 1)
bad = dataclasses.replace(fib, F=FSymbolSet({**fib.F.entries, key: -fib.fval(*key)}))
print("\ncorrupted Fibonacci:", verify_pentagon(bad)[0])

# pointed categories from quadratic forms always validate
qf = QuadraticForm(group=(4,), t=(3,))
cd = pointed_from_quadratic_form(qf)
print("\nZ/4 with t=3:", "valid" if not (verify_pentagon(cd) + verify_hexagon(cd))
      else "invalid")
print("self-braidings:", [cd.rval(g, g, cd.ring.channels(g, g)[0]) for g in range(4)])
