"""Perturbative single-slice reconstruction of the linear Klein-Gordon charge.

The linear Klein-Gordon equation conserves the pairing of a solution with
any linear test function.  With a quadratic interaction switched on the
pairing drifts, but a power series in the coupling, indexed by planar
binary trees and evaluated from field data on one time slice, recovers the
charge the linear theory would have assigned at t = 0.  This package
implements the trees, the spectral discretization, the series and its
convergence bounds, a nonlinear solver to produce ground truth, and a CLI
for reproducible experiments.
"""

from .propagation import TimeGrid, free_evolve
from .series import (
    ChargeReport,
    bracket_ds,
    convergence_condition,
    radius_bound,
    readout,
    series,
)
from .solver import (
    BlowUp,
    TestFunction,
    Trajectory,
    WidthTooSmall,
    dirac_test_function,
    evaluate_test_function,
    solve,
)
from .spectral import (
    FieldSnapshot,
    GridMismatch,
    ModeArray,
    SizeMismatch,
    SpectralGrid,
    estimate_algebra_constant,
    random_band_limited,
    sobolev_norm,
    to_modes,
)
from .trees import (
    CapExceeded,
    DegenerateTree,
    GrowSpec,
    LengthMismatch,
    ParseError,
    Tree,
    decompose,
    enumerate_trees,
    from_dyck,
    graft,
    grow,
    leaf,
    prune_cherries,
    signed_grow_sum,
    to_dyck,
)

__version__ = "0.1.0"
