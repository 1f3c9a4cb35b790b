"""Workbench for finite additively idempotent semirings.

Represents finite ai-semirings by Cayley tables, implements the free
algebra's term language with its satisfaction deciders, performs quotients,
subalgebras, and subdirect decompositions, checks equational derivations,
and enumerates all ai-semirings of order up to four up to isomorphism.
"""

from .algebra import (
    AdditiveProfile,
    FiniteAiSemiring,
    ValidationReport,
    is_commutative_mult,
    natural_order,
    parse_algebra,
    registry,
    serialize_algebra,
    validate,
)
from .derivation import (
    Derivation,
    DerivationStep,
    SearchBounds,
    check_derivation,
    check_step,
    format_derivation,
    parse_derivation,
    search_derivation,
)
from .enumeration import (
    classify_additive_type,
    enumerate_ai_semirings,
    enumerate_semilattices,
    screen_family,
)
from .family import FamilyInstance, in_W, make_family, member_of_W
from .graphs import (
    TermGraph,
    constrained_bipartition,
    find_odd_cycle,
    graph_of,
    is_bipartite,
    odd_path_exists,
)
from .satisfaction import (
    DECIDERS,
    Assignment,
    SatisfactionVerdict,
    decide_s2,
    decide_s53,
    decide_s7,
    evaluate,
    holds_identity,
    holds_inequality,
    reduce_identity,
)
from .structure import (
    Homomorphism,
    Partition,
    check_subdirect,
    direct_product,
    enumerate_congruences,
    find_isomorphism,
    is_congruence,
    quotient,
    subalgebra,
)
from .terms import (
    Substitution,
    Term,
    Word,
    add,
    apply,
    commutative_normalize,
    content,
    delta,
    factors2,
    is_linear,
    is_subterm,
    length,
    level,
    level_geq,
    mul,
    occ,
    parse_term,
    parse_word,
    print_term,
    subwords2,
)

__version__ = "0.1.0"
