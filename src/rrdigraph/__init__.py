"""Random regular digraph machinery: samplers, couplings, diagnostics, bounds.

The package is organised around the adjacency-matrix view of a d-regular
digraph (an n x n 0/1 matrix with all line sums d, self-loops allowed)
and its biregular m x n generalisation:

* ``matrices``      core types, codegrees, edge counts, the text format
* ``samplers``      rejection / switch-chain / permutation-model / ER
                    draws behind ``draw`` and ``sample_many``, and
                    exhaustive enumeration
* ``couplings``     the simple-switching and reflection involutions
* ``exchangeable``  exact f and v_f diagnostics for the three couplings,
                    self-bounding tail evaluation, the codegree event
* ``bounds``        closed-form tail bound evaluators, deterministic
                    pseudorandomness implication checks
* ``spectral``      second singular value and exact jumbledness
* ``experiments``   Monte Carlo tail harness
* ``verify``        sampled invariant suites behind `rrdigraph verify`
"""

__version__ = "0.1.0"

from .matrices import (
    BiregularBitMatrix,
    CodegreeRecord,
    InvalidMatrixError,
    VertexSetPair,
    codegree,
    complement,
    edge_count,
    format_matrices,
    format_matrix,
    parse_matrices,
    parse_matrix,
)
from .samplers import (
    RejectionBudgetExhausted,
    ResourceGuardError,
    SamplerSpec,
    SearchSpaceTooLarge,
    circulant,
    enumerate_all,
    draw,
    sample_many,
    stream_generator,
)
from .couplings import (
    ColumnWalk,
    RowOrder,
    SwitchSite,
    column_walk,
    reflect,
    simple_switch,
)
from .exchangeable import (
    CouplingDiagnostics,
    ExactCapExceeded,
    GoodEventCo,
    InvariantViolation,
    chatterjee_tail,
    good_event_co,
    permutation_diagnostics,
    reflection_f,
    reflection_vf,
    switching_f,
    switching_vf,
)
from .bounds import (
    BoundValue,
    TailBoundSpec,
    check_pseudorandom_implication,
    eval_bound,
)
from .spectral import SpectralReport, alpha_exact, sigma2
from .experiments import (
    ExperimentConfig,
    TailExperimentResult,
    binomial_ci,
    run_tail_experiment,
)
from .verify import run_suite
