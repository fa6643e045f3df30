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
finite carriers.
"""

from .annihilator import (
    IntegerRoots,
    RootSpec,
    RootsOfUnity,
    SumSet,
    annihilating_polynomial,
    degree_bound,
    lewis_polynomial,
    pfister_chain_polynomial,
    quartic_p,
    quartic_t,
    root_sum_set,
)
from .config import Limits, default_limits
from .cyclotomic import (
    CyclotomicInteger,
    cyclotomic_polynomial,
    poly_from_roots,
)
from .groups import (
    FiniteAbelianGroup,
    PermGroup,
    SubgroupClass,
    TableOfMarks,
    characters,
    close_group,
    mark,
    named_group,
    table_of_marks,
)
from .intpoly import IntPolynomial
from .rings import (
    AnnihilationReport,
    BurnsideModel,
    FiniteQuotientRing,
    FreeRing,
    GroupRingModel,
    ProductRing,
    ProductZRing,
    RingModel,
    ZRing,
    bundled_model,
    construct_model,
    parse_element,
    poly_eval_in_ring,
    verify_annihilated,
)
from .spectrum import (
    AdmissibilityResult,
    ElementPredicates,
    PrimeIdeal,
    Signature,
    SpectrumReport,
    ap_condition_check,
    dress_relations,
    element_predicates,
    fundamental_ideal,
    is_admissible,
    signatures,
    spectrum_report,
)

__version__ = "0.1.0"
