"""divlab: f-divergence inequalities over finite alphabets.

Classical f-divergences with exact support conventions, certified Pinsker
constants, chi-squared sandwich and reverse-Pinsker bounds, Bregman
divergence bounds, input-dependent contraction coefficients with Markov-chain
convergence and mixing-time consequences, and the Petz quantum extensions via
Nussbaum-Szkola distributions.
"""

__version__ = "0.1.0"

from .bregman import (
    SmoothConvexFn,
    bregman_divergence,
    bregman_integral,
    bregman_sandwich,
    neg_entropy_fn,
    quadratic_fn,
)
from .chi2bounds import (
    KappaPair,
    chi2_sandwich,
    chi2_tv_upper,
    f_lower_by_chi2,
    kappa_bounds,
    reverse_pinsker,
)
from .contraction import (
    contraction_rate_profile,
    convergence_bound,
    eta_chi2,
    eta_f_estimate,
    eta_f_upper_bounds,
    mixing_time_bounds,
)
from .divergence import (
    SUPPORT_EPSILON,
    as_prob_vec,
    as_weight_vec,
    chi_squared,
    f_divergence,
    f_divergence_rows,
    integral_representation,
    total_variation,
)
from .generators import (
    Generator,
    custom_generator,
    default_registry,
    from_spec,
    generator_values,
    make_generator,
    registry_names,
    shift_generator,
)
from .markov import (
    ChainStructure,
    as_channel,
    bsc,
    iterate,
    noisy_typewriter,
    stationary_distribution,
    structure,
)
from .pinsker import (
    PinskerCertificate,
    certify_constant,
    check_pinsker,
    gilardoni_condition,
    h_lambda,
)
from .quantum import (
    KrausChannel,
    apply_channel,
    channel_structure,
    check_density_matrix,
    classical_embedding,
    compose,
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
    ns_distributions,
    petz_bounds_report,
    petz_chi2,
    petz_eta_chi2,
    petz_f_divergence,
    quantum_eta_bounds,
    quantum_eta_estimate,
    quantum_mixing_time_bounds,
    replacer_channel,
    trace_distance,
)
