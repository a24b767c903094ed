"""Two geometric sources for the same local models.

A product of a small round S^2 with a unit S^3, presented as a single
orbit of Spin(3) x Spin(3), induces exactly the coupled quotient metric
up to a homothety; the radius rho dials the slope parameter.  A quite
different source, the midpoint orbit between a point and its cut locus
in the complex projective plane, produces a squashed three-sphere whose
shape the ``cp2-centriole-shape`` check of ``symidx verify`` derives from
the space that ``cp2_centriole`` builds.
"""

import numpy as np

from symidx import (
    product_of_spheres,
    transvection_space,
)
from symidx.verify import run_checks

for rho in (0.5, 1.0, 2.0):
    sp, info = product_of_spheres(rho)
    rep = transvection_space(sp)
    gram = sp.metric.gram / info["homothety"]
    print(f"rho={rho}: slope {info['lam']:.6f}, "
          f"normalized metric diag {np.round(np.diag(gram), 6)}, "
          f"index {rep.index}")

shape = run_checks("cp2-centriole-shape")[0]
base, fiber, sphere = shape.actual["dims"]
print(f"\nmidpoint orbit in CP^2 ({shape.check}: {shape.status}):")
print(f"  sphere dimension {sphere}, leaf dimension {fiber}, base {base}")
print(f"  coindex {shape.actual['coindex']}")
print(f"  squashing parameter {shape.actual['berger_t']:g}")
