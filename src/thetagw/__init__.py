"""Branching processes whose iterates stay inside one two-parameter family.

The offspring generating function f solves (A - f(s))^(-theta) =
a (A - s)^(-theta) + c, so every n-step iterate is the same expression with
(a, c) replaced by (a^n, c (a^n - 1)/(a - 1)). The package classifies
parameter sets, evaluates offspring laws and explicit iterates, derives
extinction and explosion time distributions, builds the conditioned
(never-absorbed) chain and a continuous-time embedding, and checks all of it
by simulation.
"""

from . import absorption, embedding, errors, offspring, params, pgf, qprocess, simulate, verify
from .absorption import *  # noqa: F403
from .embedding import *  # noqa: F403
from .errors import *  # noqa: F403
from .offspring import *  # noqa: F403
from .params import *  # noqa: F403
from .pgf import *  # noqa: F403
from .qprocess import *  # noqa: F403
from .simulate import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

#: each module's public names, declared once in its own __all__
__all__ = [
    name
    for module in (
        absorption, embedding, errors, offspring, params, pgf, qprocess, simulate, verify
    )
    for name in module.__all__
]
