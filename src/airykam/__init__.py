"""Truncated-spectral Nash-Moser-KAM machinery for the forced quasi-linear
Airy equation: sparse almost-periodic Fourier series, symplectic changes of
variables, quasi-periodic reducibility, and small-divisor diagnostics."""

__version__ = "0.1.0"

from .analytic import (
    AnalyticFunction,
    ScalarSeries,
    compose_phi_shift,
    compose_x_diffeo,
    compose_x_translation,
    dx,
    dx_inv,
    invert_phi_shift,
    invert_x_diffeo,
    lipschitz_norm,
    moser_compose,
    multiply,
    norm,
    om_dphi,
    om_dphi_inv,
    pi0,
    pi0_perp,
    project_N,
    project_N_perp,
)
from .conjugation import (
    ConjugationResult,
    QuadraticForm,
    QuadraticPerturbation,
    TransformationData,
    apply_transform,
    apply_transform_inverse,
    build_time_reparam,
    build_translation,
    build_x_diffeo,
    conjugate_step,
    evaluate_quadratic,
    linearize_quadratic,
    push_quadratic,
)
from .errors import (
    AliasingError,
    NonContractionError,
    ReductionError,
    SeriesDivergenceError,
    SeriesRadiusError,
    SmallDivisorError,
)
from .homological import solve_airy, solve_diagonal
from .lattice import (
    LatticeParams,
    MultiIndex,
    diophantine_weight,
    divisor_series_partial_sum,
    divisor_weight,
    enumerate_indices,
    eta_norm,
    l1_norm,
    weight_bound_report,
)
from .nashmoser import (
    IterationState,
    ProblemSpec,
    SolveReport,
    StripSchedule,
    assemble_solution,
    init_state,
    initial_quadratic_form,
    residual,
    solve,
    step,
)
from .opalg import (
    DifferentialOperator,
    OperatorMatrix,
    apply_op,
    commutator,
    compose,
    exp_apply,
    exp_conjugate,
    materialize,
    mult_op,
    op_norm,
)
from .reducibility import (
    KamSchedule,
    KamState,
    ReductionResult,
    compare_reductions,
    invert_via_diagonalization,
    kam_iterate,
    kam_state_init,
    kam_step,
    order_one_reduction,
    reduce_operator,
)
from .smalldiv import (
    CheckResult,
    DiophantineParams,
    FrequencyVector,
    MeasureEstimate,
    Witness,
    first_melnikov,
    is_airy_nonresonant,
    is_diophantine,
    measure_estimate,
    second_melnikov,
    smallest_divisor_report,
)
