"""Exact tools for bihamiltonian pencils of Drinfeld-Sokolov type and
their central invariants.

Subpackage layout:

    algebra     sparse differential polynomials
    upoly       univariate polynomials: integer interpolation at 0..n and
                exact rational roots by integer Newton steps
    symbols     truncated symbol calculus for pseudodifferential operators
    lax         scalar Lax operators for the classical series
    brackets    Poisson bracket tables from the symbol calculus
    invariants  canonical coordinates and central invariants
    liealg      exact Lie algebra data (Chevalley-basis matrices, gradings),
                the one Fraction elimination (a sparse row reduction), and
                the one integer route: fraction-free determinant and kernel
                vector, each one elimination
    dirac       bracket tensors through Dirac reduction on a slice
    frobenius   Frobenius manifold / orbit space constructions
    fixtures    bundled exceptional-algebra data files
    reference   the paper's reference values (invariant table, foldings,
                classical values) and the rational sample families
    cli         command line interface
"""

__version__ = "0.1.0"
