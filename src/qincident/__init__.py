"""qincident: hybrid quantum-classical neural networks for traffic incident
detection from zone-aggregated connected-vehicle data.

Modules:

* ``qsim``        exact simulation of the quantum layer (one term formula, any depth)
* ``nn``          dense layers, BCE loss, Adam, backprop primitives
* ``model``       the classical baseline and hybrid model stacks
* ``data``        the columnar dataset builder, normalized splits, CSV I/O
* ``scenario``    synthetic corridor traffic with scheduled incidents
* ``evaluation``  confusion counts, metrics, repeated-run comparisons
* ``gradcheck``   independent oracles for circuits and gradients
* ``cli``         the ``qincident`` command-line driver
"""

import importlib

from . import data, evaluation, gradcheck, model, nn, qsim, scenario
from .errors import ConfigError, DataError, FormatError, ParseError

__version__ = "0.1.0"

__all__ = [
    "cli",
    "data",
    "evaluation",
    "gradcheck",
    "model",
    "nn",
    "qsim",
    "scenario",
    "ConfigError",
    "DataError",
    "FormatError",
    "ParseError",
    "__version__",
]


def __getattr__(name):
    # ``cli`` loads on first use, so that ``python -m qincident.cli`` does
    # not find it already imported by the package
    if name == "cli":
        return importlib.import_module(f"{__name__}.cli")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
