"""monodiv: exact arithmetic for partial torsion fields.

Division and Fueter polynomials for the Tate-normal-form curve family,
Newton-polygon index bounds with a Dedekind oracle, closed-form Kodaira
classification, singular-point valuations, and machine-checkable
monogenicity certificates for T^4 - 6T^2 - alpha*T - 3.
"""

from .arith import Factorization, factor, is_squarefree, legendre, vp
from .certify import (
    FamilyEntry,
    GaloisSignature,
    MonogenicityCertificate,
    certify,
    certify_generic,
    galois_signature,
    scan,
    survey_family,
    three_torsion_quartic,
    unit_norm_check,
)
from .elliptic import (
    DivisionPoly,
    TateNormalCurve,
    WeierstrassCurve,
    fueter,
    fueter_disc,
    fueter_value,
    psi,
    psi_fueter_identity_check,
    psi_value,
    tate_curve,
    T_to_x,
    verdure_disc,
)
from .errors import (
    BudgetExceededError,
    ExactRootError,
    InfiniteValuationError,
    MathDomainError,
    MonodivError,
    SingularCurveError,
)
from .newton import (
    IndexReport,
    NewtonPolygon,
    PolygonSide,
    build_polygon,
    dedekind_p_maximal,
    ind_phi,
    index_report,
    residual_polynomial,
)
from .poly import (
    PhiDevelopment,
    PolyInt,
    PolyModP,
    PolyRat,
    discriminant,
    factor_mod_p,
    phi_development,
    resultant,
)
from .reduction import (
    KodairaType,
    ReductionData,
    classify_odd,
    classify_two,
    reduction_table,
)
from .valuation import (
    R,
    SingularCase,
    observed_fueter_valuation,
    observed_psi_valuation,
    predicted_fueter_valuation,
    predicted_valuation,
    singular_T,
    singular_case,
)

__version__ = "0.1.0"
