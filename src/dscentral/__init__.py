"""Exact tools for bihamiltonian pencils of Drinfeld-Sokolov type and
their central invariants.

Subpackage layout:

    algebra     sparse differential polynomials, fraction-free matrix
                elimination
    symbols     truncated symbol calculus for pseudodifferential operators
    lax         scalar Lax operators for the classical series
    brackets    Poisson bracket tables from the symbol calculus
    invariants  canonical coordinates and central invariants
    liealg      exact Lie algebra data (structure constants, gradings)
    dirac       bracket tensors through Dirac reduction on a slice
    frobenius   Frobenius manifold / orbit space constructions
    fixtures    bundled exceptional-algebra data files
    reference   the paper's reference values (invariant table, foldings,
                classical values) and the rational sample families
    cli         command line interface
"""

__version__ = "0.1.0"
