"""Detection of a planted community in an inhomogeneous random graph.

The package samples graphs whose pairs are independent Bernoulli edges,
optionally with a multiplicatively boosted community, runs scan tests for
that boost (with known or unknown edge probabilities), computes the
detection threshold and the most informative subgraph of a community,
estimates test risk by Monte Carlo, and provides an exact or sampled
likelihood-ratio oracle for small instances.

Each module's __all__ is the one declaration of its public names; the
package republishes them in module order.
"""

# each star import also binds the submodule itself, as plantedscan.errors etc.
from .errors import *
from .seeding import *
from .kernels import *
from .model import *
from .scan import *
from .boundary import *
from .lr import *
from .audit import *
from .harness import *

__version__ = "0.1.0"

__all__ = ["__version__", *errors.__all__, *seeding.__all__, *kernels.__all__,
           *model.__all__, *scan.__all__, *boundary.__all__, *lr.__all__,
           *audit.__all__, *harness.__all__]
