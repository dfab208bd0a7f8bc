"""Hardy Z second-moment masses, the ladder transform, and equal-mass
partitions of the critical line.

Public surface:

* ``zfun`` — phase function, Z(t) with certified error bounds.
* ``hlmass`` — cumulative second-moment integral with a persistent
  checkpoint, interval masses, damped integrals.
* ``ladder`` — the mass-scale transform F and its inverse phi(T).
* ``partition`` — equal-mass lattices, gap statistics, Planck micro-walks.
* ``gram`` — (shifted) Gram points and spacing summaries.
* ``verify`` — residual reports for the governing asymptotics.
"""

from . import gram, hlmass, ladder, partition, verify, zfun
from .errors import (CheckpointConflict, CheckpointIOError, DomainError,
                     FormatError, HlqError, InsufficientSpan, NoConvergence,
                     PrecisionUnreachable)
from .gram import GramRecord, GramSummary, gram_point, gram_spacing_report, gram_t
from .hlmass import (MassCheckpoint, QuadratureConfig, check_compat,
                     damped_mass, damped_masses, hl_mass, hl_mass_between,
                     load_checkpoint, new_checkpoint, save_checkpoint,
                     verify_rows)
from .ladder import (LadderPoint, F_inverse, F_of, F_prime, chord_tan_alpha,
                     phi_at)
from .partition import (PLANCK_H, MeanGapStat, PartitionParams,
                        PartitionRecord, generate, mean_gap_stat, next_point,
                        planck_sequence, predicted_gap, seed_point)
from .verify import (ResidualReport, balasubramanian_residual,
                     ladder_checks, ladder_increment_checks, main_term,
                     short_interval_check, tka_ladder, tka_leading,
                     tka_residual)
from .zfun import ZConfig, theta, theta_deriv, z_eval, z_many

__version__ = "0.1.0"

__all__ = [
    "CheckpointConflict", "CheckpointIOError", "DomainError", "FormatError",
    "HlqError", "InsufficientSpan", "NoConvergence",
    "PrecisionUnreachable",
    "GramRecord", "GramSummary", "gram_point", "gram_spacing_report", "gram_t",
    "MassCheckpoint", "QuadratureConfig", "check_compat", "damped_mass",
    "damped_masses", "hl_mass", "hl_mass_between", "load_checkpoint",
    "new_checkpoint", "save_checkpoint", "verify_rows",
    "LadderPoint", "F_inverse", "F_of", "F_prime", "chord_tan_alpha",
    "phi_at",
    "PLANCK_H", "MeanGapStat", "PartitionParams", "PartitionRecord",
    "generate", "mean_gap_stat", "next_point", "planck_sequence",
    "predicted_gap", "seed_point",
    "ResidualReport", "balasubramanian_residual", "ladder_checks",
    "ladder_increment_checks", "main_term", "short_interval_check",
    "tka_ladder", "tka_leading", "tka_residual",
    "ZConfig", "theta", "theta_deriv", "z_eval", "z_many",
    "gram", "hlmass", "ladder", "partition", "verify", "zfun",
    "__version__",
]
