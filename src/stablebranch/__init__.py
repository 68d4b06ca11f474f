"""Numerical laboratory for critical multitype branching with stable reproduction.

Modules
-------
model     : finite-state motion + mechanism, spectral calibration, model files
cumulant  : log-Laplace / extinction ODE engine and the weighted extinction norm
limitlaw  : limit-law transform, delay-equation solver, diagnostics
simulate  : Monte Carlo path engine with exact extinction thinning
spine     : h-transformed chain and Feynman-Kac path checks
analysis  : tail-index fits, survival and Yaglom tables
cli       : configuration-driven experiment runner (not imported here)

The package re-exports the `__all__` of each library module above, so each
public name is stated once, in its own module.  `cli` is left out so that
`python -m stablebranch.cli` runs a module not yet imported.
"""

__version__ = "0.1.0"

from . import model, cumulant, limitlaw, simulate, spine, analysis
from .model import *  # noqa: F401,F403
from .cumulant import *  # noqa: F401,F403
from .limitlaw import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403
from .spine import *  # noqa: F401,F403
from .analysis import *  # noqa: F401,F403

__all__ = [
    name
    for module in (model, cumulant, limitlaw, simulate, spine, analysis)
    for name in module.__all__
]
