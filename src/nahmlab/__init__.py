"""nahmlab: a numerical laboratory for Nahm's equations on matrix Lie algebras.

Integrates the baby and full Nahm flows, performs real/complex gauge fixing,
evaluates hyperkahler moment maps and Kahler potentials, extracts spectral
curves, solves half-line boundary-value problems identifying adjoint orbits,
and verifies the symmetric-pair / Kostant-Sekiguchi correspondence on
explicit sl(2) examples.
"""

from .algebra import (
    AlgebraSpec,
    InputError,
    Su2Triple,
    bracket,
    pairing,
    polar_decompose,
    su2_basis,
    su2_embed,
    su2_embed_block,
)
from .paths import (
    AlgebraPath,
    Grid,
    NahmData,
    TangentVector,
    complex_structure,
    l2_metric,
    omega,
    quadrature,
    s1_action,
    so3_rotate,
)
from .gauge import (
    GroupPath,
    act,
    complex_trivialize,
    horizontal_project,
    monodromy,
    quotient_metric,
    trivialize,
)
from .moment import (
    LaxPair,
    MomentResidual,
    hamiltonian_check,
    kahler_potential,
    kks_form,
    lax_extract,
    mu_baby,
    mu_complex,
    mu_nahm,
)
from .solver import (
    BoundaryTarget,
    NahmBlowUpError,
    coth_solution,
    halfline_solve,
    integrate_baby,
    integrate_nahm,
    nil_solution,
    orbit_identify,
)
from .spectral import (
    SpectralData,
    beta_zeta,
    char_coeffs,
    conservation_check,
    fixed_curve,
    reality_check,
)
from .sympair import (
    SymmetricPairSpec,
    classify_real_orbit,
    flow_preserves_split,
    is_gk_valued,
    kc_orbit_form_check,
    lax_pairs_13,
    split,
    tangent_transitivity_check,
    vergne_map,
    vergne_map_j,
)

__version__ = "0.1.0"
