"""Distributed-order SISO systems on the block pulse basis.

Operational-matrix solver for linear systems whose dynamics involve
fractional derivatives or integrals of a continuum of orders, with
first and second moment propagation under random forcing and
stochastic collocation over random coefficients.  An independent
reference suite (series, quadrature, time stepping, Monte Carlo)
backs every numerical claim.

The public names of each layer are declared once, in its module's
__all__; the package re-exports them all, plus the oracles module.
"""

__version__ = "0.1.0"

from . import bpf, opmat, dosys, detsolve, stochsolve, oracles
from .bpf import *
from .opmat import *
from .dosys import *
from .detsolve import *
from .stochsolve import *

__all__ = [*bpf.__all__, *opmat.__all__, *dosys.__all__, *detsolve.__all__,
           *stochsolve.__all__, "oracles"]
