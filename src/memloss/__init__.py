"""Numerical laboratory for memory loss in nonstationary intermittent maps.

Subpackage map:

* :mod:`memloss.maps` -- the four map families (LSV, Cui, Pikovsky,
  Grossmann-Horner): evaluation, derivatives, inverse branches.
* :mod:`memloss.sequences` -- time-dependent parameter sequences
  (explicit / periodic / i.i.d. / Markov) and good-map frequency
  statistics.
* :mod:`memloss.tables` -- the tail table every layer returns, and the
  empirical tail of sampled first-passage times.
* :mod:`memloss.partitions` -- return-time partitions, exact tail tables,
  a Monte Carlo orbit oracle, and log-log power-law fits.
* :mod:`memloss.transfer` -- grid densities, the transfer-operator step,
  total-variation memory-loss curves, and reference-set mixing mass.
* :mod:`memloss.coupling` -- composed tails, decomposition weights, and
  the exact/Monte Carlo law of the coupled random sum.
* :mod:`memloss.cli` -- the ``memloss`` command-line front end.
"""

from . import errors
from .coupling import (
    CouplingConstants,
    CouplingModel,
    StailBoundReport,
    TailFamily,
    WeightTable,
    alpha_weights,
    build_model,
    check_stail_bound,
    degenerate_family,
    derive_k_constants,
    family_from_tables,
    hat_envelope,
    make_constants,
    memory_loss_bound,
    s_tail_dp,
    s_tail_mc,
    synthetic_poly_family,
)
from .maps import (
    Branch,
    Family,
    MapParams,
    cui,
    derivative,
    eval_map,
    grossmann_horner,
    inverse_branch,
    lsv,
    pikovsky,
    state_interval,
    validate_params,
)
from .partitions import (
    PartitionEndpoints,
    PowerLawFit,
    default_fit_window,
    fit_power_law,
    lsv_preimage_points,
    mc_zscores,
    pikovsky_endpoints,
    reference_set,
    return_time_tail,
    return_time_tail_mc,
)
from .sequences import (
    FrequencyWindow,
    ParamSequence,
    check_frequency,
    constant,
    explicit,
    iid,
    load_sequence,
    markov,
    param_at,
    periodic,
    sequence_from_config,
    theta_profile,
)
from .tables import TailTable
from .transfer import (
    ConeReport,
    GridDensity,
    cone_membership,
    evolve,
    make_density,
    memory_loss_curve,
    mixing_mass,
    push_density,
    tv_distance,
)

__all__ = [name for name in dir() if not name.startswith("_")]
