"""Two geometric sources for the same local models.

A product of a small round S^2 with a unit S^3, presented as a single
orbit of Spin(3) x Spin(3), induces exactly the coupled quotient metric
up to a homothety; the radius rho dials the slope parameter.  A quite
different source, the midpoint orbit between a point and its cut locus
in the complex projective plane, produces a squashed three-sphere whose
squashing parameter the package recomputes from the embedding.
"""

import numpy as np

from symidx import (
    cp2_centriole,
    product_of_spheres,
    transvection_space,
)

for rho in (0.5, 1.0, 2.0):
    sp, info = product_of_spheres(rho)
    rep = transvection_space(sp)
    gram = sp.metric.gram / info["homothety"]
    print(f"rho={rho}: slope {info['lam']:.6f}, "
          f"normalized metric diag {np.round(np.diag(gram), 6)}, "
          f"index {rep.index}")

sp, info = cp2_centriole()
print("\nmidpoint orbit in CP^2:")
print(f"  sphere dimension {info['dim_sphere']}, "
      f"leaf dimension {info['dim_fiber']}, base {info['dim_base']}")
print(f"  coindex {info['coindex_sphere']}")
print(f"  induced metric eigenvalue multiplicities "
      f"{info['shape_multiplicities']}, squashing parameter "
      f"{info['berger_t']:g}")
