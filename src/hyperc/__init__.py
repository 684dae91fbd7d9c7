"""Exact contract algebra on finite automata and finite behavior universes.

Modules:
  lang        regular-language substrate (complete DFAs, canonical forms)
  receptive   the Heyting algebra of receptive languages, composition/quotient
  contracts   interface hypercontracts (S, io) with derived E_S and M_S
  automata    interface automata, alternating-simulation refinement
  behavioral  conic and general hypercontracts over finite behavior sets
  oracle      brute-force definitional checkers for every closed form
  jsonio      canonical JSON documents for all of the above
  cli         the `hyperc` command-line front-end
"""

from .automata import InterfaceAutomaton
from .behavioral import (
    AgContract,
    BehavioralHypercontract,
    Component,
    ConicCompset,
    GeneralCompset,
    Universe,
)
from .contracts import Incompatible, InterfaceHypercontract
from .errors import (
    AlphabetMismatch,
    DocumentError,
    HypercError,
    LimitExceeded,
    QuotientUndefined,
    SignatureMismatch,
    UniverseTooLarge,
    ValidationError,
)
from .lang import (
    Alphabet,
    IoSignature,
    RegularLanguage,
    Word,
    canonicalize,
    concat_sigma_star,
    concat_symbol_class,
    counterexample,
    empty_language,
    enumerate_words,
    from_words,
    is_prefix_closed,
    is_receptive,
    is_subset,
    prefix_closure,
    sigma_star,
    star_of,
    word_str,
)
from .oracle import BoundedCheckConfig, CheckReport
from .receptive import ReceptiveLanguage

__all__ = [
    "AgContract",
    "Alphabet",
    "AlphabetMismatch",
    "BehavioralHypercontract",
    "BoundedCheckConfig",
    "CheckReport",
    "Component",
    "ConicCompset",
    "DocumentError",
    "GeneralCompset",
    "HypercError",
    "Incompatible",
    "InterfaceAutomaton",
    "InterfaceHypercontract",
    "IoSignature",
    "LimitExceeded",
    "QuotientUndefined",
    "ReceptiveLanguage",
    "RegularLanguage",
    "SignatureMismatch",
    "Universe",
    "UniverseTooLarge",
    "ValidationError",
    "Word",
    "canonicalize",
    "concat_sigma_star",
    "concat_symbol_class",
    "counterexample",
    "empty_language",
    "enumerate_words",
    "from_words",
    "is_prefix_closed",
    "is_receptive",
    "is_subset",
    "prefix_closure",
    "sigma_star",
    "star_of",
    "word_str",
]
