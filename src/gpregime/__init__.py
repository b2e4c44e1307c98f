"""Desk-scale numerics for the dilute Bose gas.

Subpackages cover, in dependency order: radial quadrature and Fourier
machinery, potential definitions, zero-energy scattering and the Neumann
ball problem, the Gross-Pitaevskii minimizer and its linearization,
momentum-cutoff correlation kernels and their operator powers, and a
truncated Fock-space operator algebra with exact-arithmetic checks.
The cli module chains everything into a reproducible report pipeline.

Names are imported on first use (PEP 562), so importing the package
loads no numpy and the console entry, gpregime.main, can set thread
defaults before it does.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("GPRegimeError", "InvalidParameterError", "InvalidDomainError",
               "InvalidRegimeError", "SolverFailureError",
               "ResourceLimitError", "ConfigError"),
    "potentials": ("InteractionPotential", "TrapPotential",
                   "make_square_well", "make_trap"),
    "scattering": ("solve_zero_energy", "solve_neumann", "fourier_w",
                   "verify_lemma_scattering"),
    "gp": ("minimize_gp", "hgp_spectrum", "verify_decay", "fourier_decay"),
    "kernels": ("sweep_kernels", "default_sweep_tuples"),
    "fock": ("build_fock_space", "build_ladder", "build_UN", "build_HN",
             "build_LN", "build_B", "build_A", "exp_generator",
             "verify_b_commutators", "verify_un", "verify_energy_identity",
             "verify_B_number_growth", "verify_A_number_growth",
             "compute_d_eta", "sweep_d_eta"),
    "fockexact": ("verify_exact_identities",),
    "cli": ("default_config", "parse_config", "run", "fit_slope"),
}
_HOMES = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value
