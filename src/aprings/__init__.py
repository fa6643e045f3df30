"""aprings: annihilating polynomials and structure theory for AP rings.

An AP ring is a commutative ring additively generated by a set S whose
members are all roots of one monic squarefree integer polynomial q(X).
The package constructs the annihilating polynomials p_n vanishing on
every element of length n, instantiates concrete families (the
integers, products, group rings of finite abelian groups, Burnside
rings via tables of marks, finite quotients), and computes their
structure theory: signatures, minimal and maximal prime ideals, the
fundamental ideal, admissibility, and nilpotent/torsion/unit/zero-
divisor classification, cross-checked against a brute-force oracle on
finite carriers.  The package re-exports nothing: import each name from
its module, as in `from aprings.groups import table_of_marks`.
"""

__version__ = "0.1.0"
