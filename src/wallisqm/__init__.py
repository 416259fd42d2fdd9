"""Wallis-product numerics from variational hydrogen-atom energies.

Modules
-------
gamma_kit          stable gamma ratios, the Wallis ratio, bound sandwiches
wallis_series      Wallis partial products and the gamma-ratio series sums
integral_kit       radial integral closed forms + semi-infinite quadrature
variational_engine Gaussian/Lorentz variational levels, closed and numeric
verify             named invariant suites (also behind ``wallisqm verify``)
cli                CSV/JSON reproduction tables

Every quantitative claim has two independent evaluation paths (closed form
vs quadrature, telescoped sum vs direct summation, closed minimum vs
numeric minimization); the verify suites cross-check them all.

``import wallisqm`` loads only ``errors``: each submodule of ``__all__`` is
imported on its first access as an attribute (PEP 562), so
``wallisqm.gamma_kit`` and ``from wallisqm import *`` still work, and a
command pays only for the modules it runs.
"""

import sys

from .errors import ConvergenceError, DivergenceError, DomainError

__version__ = "0.1.0"

__all__ = [
    "gamma_kit",
    "integral_kit",
    "variational_engine",
    "wallis_series",
    "DomainError",
    "DivergenceError",
    "ConvergenceError",
    "__version__",
]


def __getattr__(name: str):
    if name in __all__:  # the four submodules; the other names are bound above
        # an import statement's own machinery, which -X importtime reports,
        # where importlib.import_module would load the module unreported
        __import__(f"{__name__}.{name}")
        return sys.modules[f"{__name__}.{name}"]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
