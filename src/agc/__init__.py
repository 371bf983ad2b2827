"""Finite permutation groups, their structure, and commuting graphs.

The package namespace is lazy (PEP 562): ``import agc`` loads none of its
modules, nor numpy.  The first use of an exported name, say
``agc.cyclic``, imports the module that defines it (``agc.constructions``)
and caches the name here, so later uses are plain attribute reads.  The
submodules themselves are exported under their own names.
"""

from importlib import import_module as _import_module

# every exported name, with the submodule that defines it; a submodule's
# own name maps to itself
_SUBMODULE_OF = {
    "errors": "errors",
    "AgcError": "errors", "FormatError": "errors", "GroupTooLarge": "errors",
    "InvalidAction": "errors", "MalformedPermutation": "errors",
    "NotComplement": "errors", "NotNormal": "errors", "NotSolvable": "errors",
    "PrimeNotDividing": "errors",
    "perm": "perm",
    "FiniteGroup": "perm", "Subgroup": "perm", "closure": "perm",
    "full_subgroup": "perm", "generated_subgroup": "perm", "p_part": "perm",
    "prime_divisors": "perm", "trivial_subgroup": "perm",
    "groupfile": "groupfile",
    "GroupFile": "groupfile", "group_to_file": "groupfile",
    "load_group": "groupfile", "parse_group_file": "groupfile",
    "save_group": "groupfile", "serialize_group_file": "groupfile",
    "products": "products",
    "direct_product": "products", "quotient": "products",
    "semidirect_product": "products",
    "constructions": "constructions",
    "abelian": "constructions", "alternating": "constructions",
    "cyclic": "constructions", "dicyclic": "constructions",
    "dihedral": "constructions", "matrix_action_group": "constructions",
    "metacyclic": "constructions", "quaternion": "constructions",
    "symmetric": "constructions",
    "structure": "structure",
    "DerivedSeries": "structure", "SylowSystem": "structure",
    "center": "structure", "centralizer": "structure",
    "conjugacy_classes": "structure", "derived_series": "structure",
    "derived_subgroup": "structure", "fitting_subgroup": "structure",
    "is_solvable": "structure", "minimal_normal_subgroups": "structure",
    "normal_subgroups": "structure", "normalizer": "structure",
    "sylow_subgroup": "structure", "sylow_subgroups": "structure",
    "sylow_system": "structure", "system_normalizer": "structure",
    "classify": "classify",
    "Classification": "classify", "GroupAnalysis": "classify",
    "corollary_class": "classify", "is_2frobenius": "classify",
    "is_a_group": "classify", "is_frobenius": "classify",
    "satisfies_hypothesis": "classify",
    "graph": "graph",
    "CommutingGraph": "graph", "DiameterResult": "graph",
    "verify": "verify",
    "CheckRecord": "verify", "group_fingerprint": "verify",
    "group_report": "verify", "run_all_checks": "verify",
    "witness": "witness",
    "build_witness": "witness", "witness_fingerprint": "witness",
}

__all__ = sorted(_SUBMODULE_OF)


def __getattr__(name: str):
    try:
        module = _SUBMODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = _import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return list(__all__)
