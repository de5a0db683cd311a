"""funcrelu: explicit functional deep ReLU networks at desk scale.

Construction of exact minimum / spike / interpolation ReLU networks,
orthonormal Legendre discretization of input functions, and rate
experiments for the assembled functional networks.
"""

from .constructors import (
    InterpolationSpec,
    build_interpolation_net,
    build_min_net,
    build_spike_net,
    interpolant_values,
    interpolation_error_bound,
    min_net_nonzeros,
    spike_nominal_nonzeros,
)
from .discretize import (
    DiscretizationOperator,
    InputFunction,
    RadiusSpec,
    apply_Vm,
    discretize,
    make_operator,
    projection_error,
    transfer_modulus,
)
from .legendre import (
    GaussRule,
    LegendreBasis,
    PolyCoeffs,
    gauss_legendre_rule,
)
from .pipeline import (
    ExperimentConfig,
    ExperimentReport,
    FunctionalNet,
    InputClass,
    LinearForm,
    PowerModulus,
    TargetFunctional,
    build_functional_net,
    evaluate_functional_net,
    generate_inputs,
    inner_product_functional,
    l1_norm_functional,
    linear_functional,
    run_rate_experiment,
    sin_inner_product_functional,
)
from .relu_net import (
    Layer,
    NetworkFormatError,
    ReluNetwork,
    count_nonzero,
    depth,
    deserialize,
    evaluate,
    evaluate_batch,
    forward,
    nonzero_breakdown,
    serialize,
)
from .simplicial import (
    ScaledGrid,
    SimplexId,
    in_S0,
    in_Sprime,
    simplices_containing_origin,
    spike,
    vertex_interpolant,
)

__version__ = "0.1.0"
