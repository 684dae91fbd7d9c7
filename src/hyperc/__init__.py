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

The names below, and the modules that define them, are imported on first use
(PEP 562): `import hyperc` loads none of them until one is read.
"""

from importlib import import_module

_EXPORTS = {
    "automata": "InterfaceAutomaton",
    "behavioral": "AgContract BehavioralHypercontract Component ConicCompset GeneralCompset Universe",
    "contracts": "Incompatible InterfaceHypercontract",
    "errors": (
        "AlphabetMismatch DocumentError HypercError LimitExceeded QuotientUndefined SignatureMismatch"
        " UniverseTooLarge ValidationError"
    ),
    "lang": (
        "Alphabet IoSignature RegularLanguage Word canonicalize concat_sigma_star concat_symbol_class"
        " counterexample empty_language enumerate_words from_words is_prefix_closed is_receptive"
        " is_subset prefix_closure sigma_star star_of word_str"
    ),
    "oracle": "BoundedCheckConfig CheckReport",
    "receptive": "ReceptiveLanguage",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
