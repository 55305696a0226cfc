"""Numerical projective differential geometry on coordinate charts.

The package computes, for a connection given by Christoffel expressions or a
metric: torsion and curvature with their trace decompositions, the projective
Weyl and Cotton tensors, projective changes and equivalence tests, the
twistor-space almost complex structure with its Nijenhuis integrability test,
the weight combinatorics behind the curvature decomposition, and the Cartan
frame transport with the developing map into projective space.

Names are imported from their modules (`projgeo.connection`,
`projgeo.algebra`, ...); the package root holds only `__version__`.
"""

__version__ = "0.1.0"
