"""Membrane O surfaces of the 1st and 2nd kind.

Numerical construction of seed solutions of the governing systems,
residual verification of every equation of the theory, Gauss-Weingarten
frame reconstruction of the Combescure triple (N, r, rbar), and the
Lax-pair-based Backlund transformation with kind-preservation checks.

Importing the package loads no submodule; import each by name
(``from mosurf import seeds``), as the CLI does per command.
"""

__version__ = "0.1.0"
