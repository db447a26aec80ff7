"""Exact equivariant Schubert calculus on Grassmannians.

Double Schur polynomials over Z[t1, t2, ...], the truncated ring carrying
the equivariant Schubert basis, Graham-positive structure constants with
certificates, and the wedge-power model with its cross-checked
multiplication action.  The package exports each module's `__all__`.
"""

from .poly import *
from .schur import *
from .grass import *
from .wedge import *
from .oracles import *
from .verify import *

__version__ = "0.1.0"
