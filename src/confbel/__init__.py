"""Consonant belief and plausibility functions from confidence regions.

The package turns nested confidence-region families into possibility
contours, builds valid fused inferential constructions on top of them through
predictive random sets, and audits both by Monte Carlo.  See
:mod:`confbel.models` for the worked statistical models and :mod:`confbel.cli`
for the batch command line.
"""

from .audit import (
    AuditReport,
    AuditRow,
    CoverageEstimate,
    SamplingModel,
    assertion_validity_audit,
    contour_validity_audit,
    coverage_probability,
    ks_uniform,
)
from .contours import (
    ConfidenceFamily,
    ConsonanceError,
    DegenerateAssertionError,
    GridSpec,
    Interval,
    IntervalUnion,
    NestednessError,
    OutOfRangeError,
    PlausibilityContour,
    UnsupportedAssertionError,
    belief,
    contour_from_family,
    marginal_contour,
    marginal_region,
    plausibility,
    plausibility_region,
)
from .fusion import (
    Association,
    CompatibilityReport,
    NestednessReport,
    RandomSetFamily,
    alpha_index,
    check_compatibility,
    check_nested_support,
    focal_set,
    fused_contour,
    support_mass,
    support_of,
    theta_specific_plaus,
)
from .mc import MCConfig

__version__ = "0.1.0"
