"""heckeq: exact computational toolkit for Hecke-algebra representation data.

The package computes, in exact rational and Laurent-polynomial
arithmetic: eigenvalues of the fundamental invariant of the Hecke
algebra and their inversion back to Young diagrams, symmetric-group
central characters and full character tables via central projectors,
Murphy-operator trace tables and connected-word traces, and the
quadratic Casimir spectra of quantum unitary groups together with their
correspondence to the Hecke side.  A regular-representation oracle at a
specialized rational q0 cross-validates everything.

The public names are those of the layer modules' own ``__all__``s.
"""

from .laurent import *
from .diagrams import *
from .invariant import *
from .symgroup import *
from .hecke_oracle import *
from .traces import *
from .suq import *
from . import diagrams, hecke_oracle, invariant, laurent, suq, symgroup, traces

__version__ = "0.1.0"

__all__ = [
    *laurent.__all__,
    *diagrams.__all__,
    *invariant.__all__,
    *symgroup.__all__,
    *hecke_oracle.__all__,
    *traces.__all__,
    *suq.__all__,
]
