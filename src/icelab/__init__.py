"""icelab: a verification workbench for the six-vertex model with domain
wall boundary conditions.

The model is computed three independent ways (configuration enumeration
and transfer matrix, determinant formulas, multiple contour integrals
evaluated by residue extraction) and every identity connecting them is
certified, in exact rational arithmetic wherever the parametrization
allows.
"""

from .lattice import (HomogeneousWeights, InhomogeneousWeights,
                      boundary_correlation, efp_enum, partition_function,
                      rcp_enum)
from .report import CheckReport

__version__ = "0.1.0"

__all__ = [
    "CheckReport", "HomogeneousWeights", "InhomogeneousWeights",
    "boundary_correlation", "efp_enum", "partition_function", "rcp_enum",
    "__version__",
]
