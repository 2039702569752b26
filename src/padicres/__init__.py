"""Exact iterated p-power cyclic resultants, their p-adic limits, and
first-homology orders of branched p-power coverings of links.

Everything is exact big-integer arithmetic, the cross-checking oracles
included: the Sylvester determinant and the subresultant PRS (in
`oracles`), and complex_root_product and character_oracle, which evaluate
at the p-power roots of unity modulo primes q = 1 (mod p^N) and recover the
integer by the CRT, apart from the resultant engine.
"""

from .errors import (
    BudgetExceededError,
    DegenerateValueError,
    ExactDivisionError,
    OracleMismatchError,
    PadicResError,
    PolyParseError,
    PrecisionExhaustedError,
    VanishingResultantError,
    WindowTooShortError,
)
from .multipoly import MultiPoly
from .parsing import parse_poly
from .unipoly import UniPoly, cyclotomic, is_prime, power_minus_one
from .newton import NewtonPolygon, newton_polygon
from .resultants import CyclicResultantRequest, cyclic_resultant
from .oracles import (
    bareiss_det,
    complex_root_product,
    cyclic_resultant_baseline,
    modular_root_product,
    resultant_prs,
    sylvester_matrix,
    sylvester_resultant,
)
from .padic import PadicApprox, nonp_part, teichmuller, vp, vp_split
from .cyclo import (
    CycloPadic,
    log_with_shift,
    nu_zeta,
    phi_degree,
    pi_valuation,
)
from .limits import (
    IwasawaInvariants,
    LimitEstimate,
    OrderInvarianceReport,
    closed_form_limit,
    iwasawa_fit,
    lambda_mu_structural,
    limit_estimate,
    order_invariance_check,
    sign_of,
    zero_limit_predicate,
)
from .links import (
    CoveringSpec,
    H1Result,
    LinkSpec,
    TwoPartReport,
    WhiteheadLimit,
    character_oracle,
    h1_nonp_limit,
    h1_order,
    load_link_spec,
    trefoil_spec,
    two_part_exponent_check,
    whitehead_closed_form,
    whitehead_delta,
    whitehead_link_spec,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
