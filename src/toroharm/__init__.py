"""Interior toroidal harmonics and quaternion-valued monogenic functions.

The package evaluates the interior harmonics of the solid torus, the
degree-raising (reverse-Appell) combinations built from them, and the
monogenic function systems they generate; it also provides numerically
orthogonalizable bases, series expansions with exact rational
coefficients, and a verification battery exercising every identity the
construction rests on.
"""

from .geometry import (
    CartesianPoint,
    DegenerateLocusError,
    TorusDomain,
    ToroidalPoint,
    sample_grid,
    to_cartesian,
    to_toroidal,
)
from .harmonics import (
    HarmonicIndex,
    eval_I,
    eval_I_batch,
    j_coefficient,
    kappa,
)
from .appell import (
    alpha_beta,
    eval_I_star_batch,
    inverse_matrix,
    star_matrix,
)
from .monogenics import (
    Quaternion,
    cohomology,
    decompose_H,
    fueter_bar,
    psi,
    teodorescu,
)
from .expansion import (
    BasisElement,
    ExpansionGrid,
    SeriesExpansion,
    basis_A,
    basis_A_second,
    basis_H,
    gram,
    project,
)
from .checks import run_suite

__version__ = "0.1.0"

__all__ = [
    "BasisElement",
    "CartesianPoint",
    "DegenerateLocusError",
    "ExpansionGrid",
    "HarmonicIndex",
    "Quaternion",
    "SeriesExpansion",
    "TorusDomain",
    "ToroidalPoint",
    "alpha_beta",
    "basis_A",
    "basis_A_second",
    "basis_H",
    "cohomology",
    "decompose_H",
    "eval_I",
    "eval_I_batch",
    "eval_I_star_batch",
    "fueter_bar",
    "gram",
    "inverse_matrix",
    "j_coefficient",
    "kappa",
    "project",
    "psi",
    "run_suite",
    "sample_grid",
    "star_matrix",
    "teodorescu",
    "to_cartesian",
    "to_toroidal",
]
