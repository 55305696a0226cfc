"""Numerical projective differential geometry on coordinate charts.

The package computes, for a connection given by Christoffel expressions or a
metric: torsion and curvature with their trace decompositions, the projective
Weyl and Cotton tensors, projective changes and equivalence tests, the
twistor-space almost complex structure with its Nijenhuis integrability test,
the weight combinatorics behind the curvature decomposition, and the Cartan
frame transport with the developing map into projective space.
"""

from .algebra import (
    AlgebraElement,
    CartanCurvature,
    CurvatureReport,
    HasTorsion,
    NotAntisymmetric,
    NotBianchi,
    WeylParts,
    bianchi_project,
    bracket,
    cartan_curvature,
    cotton,
    curvature_report,
    first_bianchi_residual,
    three_form_split,
    torsion_split,
    wedge_id,
    wedge_id3,
    weyl,
)
from .connection import (
    ChartError,
    ConnectionSpec,
    ConnectionValue,
    MissingJet,
    SingularMetric,
    curvature,
    curvature_derivative,
    load_chart,
    parse_chart,
    ricci,
    second_bianchi_residual,
    torsion,
    trace2form,
)
from .develop import (
    CartanFrame,
    DevelopedPoint,
    LeftDomain,
    NotFlat,
    PathOutsideDomain,
    ProjectivePoint,
    StepFailure,
    cartan_transport,
    collinearity_defect,
    develop_map,
    flatness_defect,
    geodesic_trace,
    holonomy_loops,
    model_connection,
    model_metric,
    transport_many,
)
from .expr import DomainError, ParseError, UnknownFunction, UnknownVariable, eval_jet, parse
from .projective import (
    Equivalence,
    OneFormField,
    TorsionRemoval,
    TwistorComparison,
    WeylInvariance,
    check_weyl_invariance,
    load_alpha,
    parse_alpha,
    projective_change,
    projectively_equivalent,
    remove_torsion,
    same_twistor_structure,
    sample_points,
)
from .reps import (
    IrrepComponent,
    NotDominant,
    WeightVector,
    curvature_component_weights,
    decompose_with,
    fundamental,
    j0_census,
    torsion_component_weights,
    weights_of_V,
    weights_of_dual,
    weyl_dim,
)
from .tensor import (
    OddDimension,
    SlotOutOfRange,
    TensorValue,
    VarianceMismatch,
    alt2,
    contract,
    norm,
    swap,
    sym2,
)
from .twistor import (
    NotAlmostComplex,
    TwistorChart,
    TwistorPoint,
    anticommutant_basis,
    integrability_verdict,
    mild_complex_structure,
    nijenhuis,
    random_complex_structure,
    sample_twistor_points,
    standard_complex_structure,
    twistor_acs,
)

__version__ = "0.1.0"
