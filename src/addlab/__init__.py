"""addlab: a desk-scale numerical lab for additive combinatorics.

Moment energies of grid-free sets, discrete Fourier analysis over Z_M and
F_q^n, large spectra and their Bohr sets / annihilator subspaces, dense
models, solution counting for translation-invariant equations, and the
telescoping transference ledger that ties them together.
"""

from .groups import FieldCtx, GroupCtx, CyclicCtx, VectorCtx, parse_ctx
from .functions import (
    Dfn,
    fourier,
    inverse_fourier,
    convolve,
    fourier_mean_norm,
    save_dfn,
    load_dfn,
)
from .sets import (
    SetA,
    GridWitness,
    FreenessError,
    rep_diff,
    rep_tuple,
    is_kst_free,
    find_kst_violation,
    find_kst_violation_exhaustive,
    erdos_turan_sidon,
    greedy_kst_free,
    random_subset,
    subspace_set,
    equation_free_greedy,
    construct,
    save_set,
    load_set,
)
from .energy import (
    moment_energy,
    pair_energy,
    verify_trivial_bounds,
    verify_energy_interpolation,
    verify_kst_energy_bound,
    verify_heavy_tuple_count,
    verify_size_bound,
    verify_excess_vanishing,
    vanishing_eta,
)
from .spectral import (
    Spectrum,
    BohrSet,
    Subspace,
    spectrum,
    bohr_set,
    span,
    annihilator,
    uniform_measure,
    large_sieve_check,
    verify_spectrum_span_bound,
)
from .dense_model import (
    DenseModel,
    build_dense_model,
    verify_model_properties,
    verify_smoothing_decomposition,
)
from .counting import (
    EquationSpec,
    PaddingError,
    padded_modulus,
    count_T,
    count_equation_solutions,
    count_all_distinct,
    trivial_solution_value,
    verify_counting_lemma,
    verify_telescoping,
    level_set_extract,
    count_k_cycles,
    verify_supersaturation,
    run_transference_pipeline,
    PipelineReport,
)
from .report import VerificationReport, Assertion, dumps_report

__version__ = "0.1.0"
