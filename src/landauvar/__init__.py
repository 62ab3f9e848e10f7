"""Landau varieties, Picard-Lefschetz variation operators and hierarchy
constraints for parameter integrals of Feynman and Aomoto type.

Each submodule is registered unloaded, in `sys.modules` and as an attribute,
and runs its body at its first attribute access (`importlib.util.LazyLoader`);
each public name is read from its submodule at its first use (PEP 562).  So
`import landauvar.cli` runs no other submodule, and a command loads only the
modules it uses.  A submodule's import error surfaces at its first use, and
two threads must not touch an unloaded submodule for the first time at once.
"""

import importlib.util as _util
import sys as _sys

# each submodule with the public names it lends the package
_EXPORTS = {
    "poly": "Polynomial PolyMatrix determinant divides parse resultant",
    "graphs": "BUILTIN_GRAPHS Edge FeynmanGraph contract load_graph symanzik_F symanzik_U",
    "landau": "LandauComponent OneLoopMatrices bubble_split eliminate_critical_values"
              " fixture_landau gram_matrix icecream_ellA12 icecream_ellA12_printed"
              " oneloop_landau split_component",
    "hierarchy": "HierarchyRelation Verdict compatible hierarchy_graph to_dot word_vanishes",
    "localhom": "PinchConfig local_rank normalize_word operator pairing_transfer_sign"
                " parse_word partialK_reduction_sign pinch_config pl_sign"
                " vanishing_cycle_sign",
    "variation": "VariationModel builtin_model check_against_hierarchy compose"
                 " model_from_json model_to_json nilpotency_index pl_operator"
                 " word_zero_certificate",
    "aomoto": "aomoto_components aomoto_edges aomoto_symbol maximal_chain_value",
    "tracking": "Loop ParametricRootSystem TrackResult track",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = [*_EXPORTS, *_HOME]


def _lazy(name):
    spec = _util.find_spec(f"{__name__}.{name}")
    spec.loader = _util.LazyLoader(spec.loader)
    module = _sys.modules[spec.name] = _util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


globals().update({name: _lazy(name) for name in _EXPORTS})


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_HOME[name]], name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"
