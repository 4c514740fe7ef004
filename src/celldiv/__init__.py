"""Size-structured division: eigenproblem, entropy diagnostics, rate recovery.

Public names are imported from the module that defines them, for example
``from celldiv.direct import solve_direct``; the package itself holds only
its submodules and ``__version__``.
"""

__version__ = "0.1.0"
