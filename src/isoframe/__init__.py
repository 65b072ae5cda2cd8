"""Exact arithmetic for weighted frames of isometric embeddings of the
Euclidean space over R, C or H into l_p, including the invariant polynomial
space Phi_K(m,p), dependence-based reduction and diagonal-scaling reduction.

The package root re-exports the public names (`__all__`) of `forms`,
`frames`, `kscalar` and `phi`.
"""

from . import forms, frames, kscalar, phi
from .forms import *  # noqa: F401,F403
from .frames import *  # noqa: F401,F403
from .kscalar import *  # noqa: F401,F403
from .phi import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted({*forms.__all__, *frames.__all__, *kscalar.__all__, *phi.__all__})
