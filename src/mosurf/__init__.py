"""Membrane O surfaces of the 1st and 2nd kind.

Numerical construction of seed solutions of the governing systems,
residual verification of every equation of the theory, Gauss-Weingarten
frame reconstruction of the Combescure triple (N, r, rbar), and the
Lax-pair-based Backlund transformation with kind-preservation checks.

Submodules are imported lazily, on first attribute access, so importing the
package stays cheap and each CLI command loads only the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

_SUBMODULES = (
    "fields",
    "seeds",
    "kernel",
    "frames",
    "backlund",
    "omega",
    "verify",
    "fileio",
    "cli",
    "errors",
)


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
