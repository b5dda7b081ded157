"""Coherence of quantum channels.

Quantify how coherent a channel is through its Jamiolkowski state, build
optimally coherified channels with a prescribed classical (column-stochastic)
action, and compute rigorous bounds on what any coherification can achieve.
All entropies are in bits.
"""

from .bounds import (
    BoundReport,
    PolygonReport,
    coherence_bounds,
    compute_bounds,
    mu_lower,
    mu_upper,
    polygon_report,
    theorem1_bound,
)
from .channels import (
    Channel,
    apply,
    c2_split,
    channel_coherence_2norm,
    channel_coherence_entropic,
    channel_entropy,
    channel_from_kraus,
    channel_purity,
    classical_action,
    classical_channel,
    decohere_channel,
    identity_channel,
    kraus_from_channel,
    unitary_channel,
)
from .constructions import (
    CoherificationResult,
    coherify_auto,
    coherify_c0,
    coherify_contracting,
    coherify_qubit,
    coherify_qutrit,
    coherify_unistochastic,
    cohering_power_maximizer,
    qubit_extremality_witness,
    qutrit_family_spectrum,
)
from .diagnostics import (
    DiagnosticsReport,
    avg_output_purity,
    diagnostics_report,
    maxmixed_output_purity,
    path_distribution,
    purity_relations,
    unitarity,
)
from .errors import (
    CoherifyError,
    ConvergenceFailure,
    DimensionMismatch,
    FamilyMismatch,
    NotBistochastic,
    NotHermitian,
    NotTracePreserving,
    NotUnistochastic,
    UndefinedAlpha,
)
from .matcore import (
    eig_hermitian,
    partial_trace,
)
from .oracle import (
    OracleConfig,
    haar_unitarity_mc,
    maximize_purity,
    sample_fixed_action,
    search_unistochastic_witness,
)
from .states import (
    coherence_2norm,
    coherence_entropic,
    coherify_state,
    contradiagonal_state,
    decohere_state,
    entropy,
    fourier_matrix,
    purity,
    shannon_entropy,
    spectrum,
)
from .stochastic import (
    StochasticClass,
    alpha,
    classify,
    is_bistochastic,
    majorizes,
    unitary_from_unistochastic,
)

__version__ = "0.1.0"
