"""Feeding a hand-written space through the JSON layer and the oracles.

The document below describes the two-sphere as an orbit of so(3): the
isotropy is the rotation fixing the north pole and the metric is the
identity on the remaining two directions.  After loading we compare the
algebraic covariant derivative of a few Killing fields with fourth-order
finite differences in the exponential chart; the two routes are
independent, so agreement is a real check, not bookkeeping.
"""

import json
import os
import tempfile

import numpy as np

from symidx import (
    ExponentialChart,
    load_space,
    transvection_space,
)

document = {
    "algebra": "so3",
    "isotropy": [[0.0, 0.0, 1.0]],
    "complement": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
    "metric": [[1.0, 0.0], [0.0, 1.0]],
    "label": "two-sphere from a JSON document",
}

with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
    json.dump(document, fh)
    path = fh.name

sp = load_space(path)
os.unlink(path)
rep = transvection_space(sp)
print(f"{sp.label}: index {rep.index}, coindex {rep.coindex}")

chart = ExponentialChart(sp, sp.metric.gram)
rng = np.random.default_rng(8)
worst = 0.0
for _ in range(4):
    z = rng.standard_normal(3)
    fd = chart.nabla_killing_fd(z)
    algebraic = sp.nabla_at_base(z)
    worst = max(worst, float(np.max(np.abs(fd - algebraic))))
print(f"worst derivative disagreement over 4 random fields: {worst:.3e}")

gamma = chart.christoffel(np.zeros(2))
print(f"chart Christoffel symbols at the origin: max |Gamma| = "
      f"{np.max(np.abs(gamma)):.3e} (exponential coordinates of a "
      f"symmetric space are normal)")
