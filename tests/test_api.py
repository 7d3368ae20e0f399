"""The package namespace offers one name per operation."""

import types

import maxreg_lab

REMOVED = (
    "apply_operator",
    "weighted_maxreg_check",
    "nlhe_existence_experiment",
    "ns_existence_experiment",
    "nlhe_law",
    "ns_law",
    "two_route_solutions",
)


def _public_objects():
    return {
        name: getattr(maxreg_lab, name)
        for name in dir(maxreg_lab)
        if not name.startswith("_")
        and not isinstance(getattr(maxreg_lab, name), types.ModuleType)
    }


def test_no_public_name_is_an_alias():
    names_by_object = {}
    for name, obj in _public_objects().items():
        names_by_object.setdefault(id(obj), []).append(name)
    aliases = [sorted(names) for names in names_by_object.values() if len(names) > 1]
    assert aliases == []


def test_folded_names_are_gone():
    modules = [maxreg_lab, maxreg_lab.maxreg, maxreg_lab.problems]
    assert [(m.__name__, n) for m in modules for n in REMOVED if hasattr(m, n)] == []
