"""Asymmetric mode-pairing QKD: key-rate model, intensity optimization,
decoy-state bounds, Monte Carlo protocol oracle and sweep tooling.

The package exports what its modules export: each module's ``__all__``."""

from . import decoy, model, montecarlo, optimize, sweep
from .decoy import *
from .model import *
from .montecarlo import *
from .optimize import *
from .sweep import *

__all__ = [*decoy.__all__, *model.__all__, *montecarlo.__all__, *optimize.__all__, *sweep.__all__]
