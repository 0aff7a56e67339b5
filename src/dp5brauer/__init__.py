"""Integral Brauer-Manin machinery for quintic del Pezzo surfaces split by
cyclic quintic fields.

The package is organized in layers: exact integer linear algebra at the
bottom, number-field arithmetic and model construction above it, then fiber
enumeration, the obstruction engine, and the Picard lattice side.
`dp5brauer.cli` exposes the whole stack as a command line tool;
`dp5brauer.verify` replays every published quantity the package can
recompute.
"""

from .errors import (
    DomainError,
    DegenerateOrbitError,
    FiberInconsistencyError,
    NotCyclicError,
)
from .intlinalg import IntMatrix, hnf, snf, saturated_kernel, lattice_index
from .numberfield import QuinticFieldSpec, galois_conjugates, zeta11_plus_field
from .model import DelPezzoModel, build_model, fixture
from .fibers import classify_fiber, enumerate_fiber, find_lines, verify_chart
from .obstruction import (
    InvariantImage,
    ObstructionReport,
    census_11,
    census_25,
    fifth_power_classes,
    inv_image_11,
    inv_image_11_smoothpath,
    inv_image_25,
    inv_image_25_liftpath,
    locally_soluble,
    verdict,
)
from .picard import (
    h1_cyclic,
    interesting_sigma,
    minus_one_classes,
    petersen_graph,
    pic_u_action,
)

__version__ = "0.1.0"

__all__ = [
    "DelPezzoModel",
    "DegenerateOrbitError",
    "DomainError",
    "FiberInconsistencyError",
    "IntMatrix",
    "InvariantImage",
    "NotCyclicError",
    "ObstructionReport",
    "QuinticFieldSpec",
    "build_model",
    "census_11",
    "census_25",
    "classify_fiber",
    "enumerate_fiber",
    "fifth_power_classes",
    "find_lines",
    "fixture",
    "galois_conjugates",
    "h1_cyclic",
    "hnf",
    "interesting_sigma",
    "inv_image_11",
    "inv_image_11_smoothpath",
    "inv_image_25",
    "inv_image_25_liftpath",
    "lattice_index",
    "locally_soluble",
    "minus_one_classes",
    "petersen_graph",
    "pic_u_action",
    "saturated_kernel",
    "snf",
    "verdict",
    "verify_chart",
    "zeta11_plus_field",
    "__version__",
]
