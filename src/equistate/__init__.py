"""equistate: certified thermodynamic quantities of complex dynamical systems.

Exact-rational ball arithmetic underpins everything: chordal geometry on
the Riemann sphere, certified polynomial roots and rational-map preimage
trees, transfer-operator iterates and topological pressure with rigorous
error, finitely supported measures with exact optimal transport, and
equilibrium-state verification through Jacobian, membership, and
tangent-functional criteria.  Two piecewise-affine subdivision maps on the
doubled triangle exercise the same machinery combinatorially.
"""

__version__ = "0.1.0"

from .balls import BallReal, DirectedReal
from .measures import FiniteMeasure, TestFunction
from .polynomials import Polynomial
from .ratmap import RationalMapRec
from .roots import RootCluster, certified_roots
from .sphere import INF, PointBall, SpherePoint
from .trisphere import TilePoint

__all__ = [
    "BallReal",
    "DirectedReal",
    "FiniteMeasure",
    "TestFunction",
    "Polynomial",
    "RationalMapRec",
    "RootCluster",
    "certified_roots",
    "INF",
    "PointBall",
    "SpherePoint",
    "TilePoint",
    "__version__",
]
