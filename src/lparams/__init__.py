"""Exact arithmetic for based root data, Tits groups, and real Weil group
parameters: build a group from a literal, pick an inner class, validate
parameters, and verify that the contragredient is computed by the Chevalley
involution of the extended dual group.

Everything is over the rationals (Gaussian rationals where a complex
exponent is needed); there are no floats and no tolerances.

Each public name in `_EXPORTS` is imported from its module on first use
(PEP 562), so `import lparams` itself loads no submodule.
"""

# module -> the names `lparams` re-exports from it; the one export table
_EXPORTS = {
    "errors": (
        "ContextMismatch", "DatumMismatch", "DimensionMismatch", "InputError",
        "InvalidCartan", "InvalidParam", "InvariantViolated", "LparamsError",
        "NormalizationRequired", "NotBasedAut", "NotInvolution", "PreconditionViolated",
        "RankMismatch", "ValidityC", "ValidityE", "ValidityIntegrality",
    ),
    "gaussian": (
        "GaussQ", "ScaledVec", "format_gauss", "format_vec", "parse_gauss",
    ),
    "rootdata": (
        "BasedAut", "RootDatum", "based_aut", "build_datum", "compose_aut",
        "datum_from_vectors", "dual_datum", "identity_aut", "inverse_aut",
        "transpose_aut",
    ),
    "weyl": (
        "WeylElem", "longest_element", "neg_w0_aut", "simple_reflection", "weyl_act",
        "weyl_enumerate", "weyl_from_word", "weyl_identity", "weyl_inv", "weyl_mul",
        "weyl_order",
    ),
    "tits": (
        "ExtTitsElem", "TitsContext", "TorusPart", "chevalley", "delta_elem",
        "h_conjugate_to_inverse", "run_tits_suite", "sigma", "tits_context",
        "tits_identity", "tits_inverse", "tits_mul", "torus_elem", "torus_part",
    ),
    "torus": (
        "TorusCharData", "TorusEGroup", "TorusParam", "char_equal", "param_to_char",
        "random_torus_param", "torus_contragredient", "torus_egroup", "torus_param",
        "torus_params_equivalent",
    ),
    "lgroup": (
        "LGroup", "StandardLevi", "build_lgroup", "has_compact_cartan",
        "lgroup_compact", "lgroup_split", "parse_inner_class", "standard_levis",
    ),
    "lparam": (
        "LParam", "PacketDescriptor", "central_char", "central_chars_agree",
        "conjugate_param", "contragredient_param", "inf_char", "is_discrete_series",
        "levi_of", "make_param", "packet_descriptor", "param_from_dict",
        "param_to_dict", "params_equivalent", "rad_char", "rad_param", "random_param",
        "tau_twist_param", "twisted_involutions", "verify_contragredient",
    ),
    "weilrep": (
        "WeilIrr", "WeilRep", "lparam_to_weilrep", "parse_weil_rep", "weil_chi",
        "weil_dual", "weil_hermitian_dual", "weil_ind", "weil_inf_char",
        "weil_is_hermitian", "weil_is_unitary", "weil_rep", "weil_to_lparam",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
