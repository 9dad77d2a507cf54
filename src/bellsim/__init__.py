"""bellsim: simulation and feasibility analysis of local hidden-variable
models of the two-particle EPR-Bell experiment.

Subpackages and modules
-----------------------
spaces        finite hidden-variable spaces, distributions, products, marginals
models        response-model families and reductions between them
correlation   correlation functions, CHSH, exact and Monte Carlo estimation
feasibility   joint-distribution existence (witness or LP), local/nonlocal classification
simplex       self-contained phase-1 simplex solver used by feasibility
qm            quantum singlet-state reference predictions
scenario      scenario-file schema, templates, load/save
report        analysis report rendering
cli           command-line harness
"""

from __future__ import annotations

__version__ = "0.1.0"

from . import errors  # noqa: F401
