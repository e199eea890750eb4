"""Bell expressions for two-party, two-setting, d-outcome scenarios.

The package covers three expression families written on joint outcome
probabilities: a four-term form with local bound 3, its eight-term
sharpening with local bound 2, and the weighted-shift family that
extends the sharpening to every dimension.  Alongside the expressions
it provides local bounds by two cross-checked routes (a count over
deterministic strategies and an exact case analysis), the maximally
entangled reference measurement setup with closed-form statistics,
noise thresholds, and a derivative-free phase search.  The package root
exports the public names of those four modules, as each module's
``__all__`` lists them.
"""

from . import expressions, local_models, optimize, quantum
from .expressions import *  # noqa: F403
from .local_models import *  # noqa: F403
from .optimize import *  # noqa: F403
from .quantum import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*expressions.__all__, *local_models.__all__, *optimize.__all__, *quantum.__all__]
