"""First-passage analysis for barrier crossings of jump diffusions.

Three layers share one vocabulary of crossing modes:

  * `paths`: exact classification of piecewise-affine paths against a
    barrier, running suprema, and announcing sequences;
  * `simulate`: exact-step Monte Carlo for an affine jump diffusion with
    upward exponential jumps, plus a compound Poisson sandbox;
  * `weber` / `analytic`: parabolic cylinder machinery and closed-form or
    integral-equation evaluation of the crossing transforms;
  * `mc`: estimators that tie the simulation output to the formulas.
"""

from .errors import (
    AccuracyError,
    ConvergenceError,
    InconsistencyError,
    NumericalError,
    StructuralError,
    UnderSampleError,
    UnsupportedRegimeError,
)
from .paths import (
    AnnouncingReport,
    Barrier,
    CrossingRecord,
    Jump,
    Mode,
    PiecewisePath,
    Segment,
    announcing_sequence,
    check_no_premature_contact,
    classify_mode,
    first_passage,
    load_corpus,
    load_path,
    restricted_times,
    running_supremum,
    save_path,
)
from .simulate import (
    CompoundPoissonSpec,
    ExponentialJumps,
    LatticeJumps,
    ModelParams,
    SimConfig,
    SimResult,
    ou_exact_step,
    run_compound_poisson,
    run_paths,
    simulate_compound_poisson,
    simulate_crossing,
)
from .weber import WeberContext, log_pcf_d, make_context, pcf_d

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
