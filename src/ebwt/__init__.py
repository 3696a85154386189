"""Extended Burrows-Wheeler transform between words and necklace multisets,
with de Bruijn word generation, necklace semigroups, and factor complexity."""

from .bwt import (
    NecklaceMultiset,
    StandardPermutation,
    inverse_transform,
    standard_permutation,
    transform,
)
from .debruijn import (
    GammaWord,
    count_debruijn_words,
    debruijn_set_from_gamma,
    enumerate_gamma,
    is_debruijn_set,
    least_debruijn_word,
    lyndon_concatenation_oracle,
)
from .errors import NotPrimitiveError, ResourceLimitError
from .factors import (
    debruijn_factor_witness,
    distinct_factors,
    max_factors_exhaustive,
    repeated_factor_lower_bound,
)
from .semigroups import (
    FiniteSemigroup,
    MultisetSemigroup,
    PartialInjection,
    generate_closure,
    letter_actions,
    letter_induced_isomorphic,
    semigroup_of_multiset,
    syntactic_semigroup,
)
from .words import (
    EQUAL,
    GREATER,
    LESS,
    Alphabet,
    Necklace,
    Word,
    conjugate_shift,
    default_alphabet,
    has_border,
    is_primitive,
    lyndon_representative,
    omega_compare,
    root,
)

__all__ = [
    "Alphabet", "Word", "Necklace", "NecklaceMultiset", "StandardPermutation",
    "GammaWord", "PartialInjection",
    "FiniteSemigroup", "MultisetSemigroup",
    "NotPrimitiveError", "ResourceLimitError",
    "LESS", "EQUAL", "GREATER",
    "conjugate_shift", "root", "is_primitive", "lyndon_representative",
    "has_border", "omega_compare", "default_alphabet",
    "transform", "inverse_transform", "standard_permutation",
    "is_debruijn_set", "debruijn_set_from_gamma",
    "least_debruijn_word", "lyndon_concatenation_oracle",
    "count_debruijn_words", "enumerate_gamma",
    "letter_actions", "generate_closure", "syntactic_semigroup",
    "letter_induced_isomorphic", "semigroup_of_multiset",
    "distinct_factors", "max_factors_exhaustive",
    "repeated_factor_lower_bound", "debruijn_factor_witness",
]
