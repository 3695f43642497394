"""Numerical laboratory for Schrodinger operators -Delta_g + V with
critically singular potentials on model compact manifolds (zonal spheres,
the full 2-sphere, flat tori).

Modules:

- ``geometry``       manifolds, quadrature grids, truncated eigenbases
- ``potentials``     closed-form/expression potentials, Kato-class analysis
- ``operator_core``  Galerkin assembly, deterministic eigensolver, multipliers
- ``estimators``     exponents sigma(p)/p_c, projector norms, Weyl sums,
                     quasimode ratios, exponent fitting
- ``dynamics``       heat and wave flows, Bochner-Riesz,
                     square functions, Strichartz probes
- ``parametrix``     Bessel kernels K_m, radial kernels F_nu, kernel bounds
- ``cli``            the ``qlab`` experiment runner

Importing the package loads only ``errors``; import a module by name
(``from qlab import geometry``) to use it.  numpy is therefore first
loaded after ``qlab.cli`` has applied ``--jobs`` to the thread pools.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, DomainError, NumericError, QlabError,
                     ResolutionError)

__all__ = [
    "dynamics", "errors", "estimators", "geometry", "operator_core",
    "parametrix", "potentials",
    "QlabError", "DomainError", "ResolutionError", "ConfigError",
    "NumericError", "__version__",
]
