"""The package's public names are its modules' __all__ lists, declared once."""

import importlib

import thetagw

MODULES = {
    name: importlib.import_module(f"thetagw.{name}")
    for name in ("absorption", "embedding", "errors", "offspring", "params",
                 "pgf", "qprocess", "simulate", "verify")
}


def test_package_all_is_the_union_of_module_all():
    names = [n for module in MODULES.values() for n in module.__all__]
    assert len(set(thetagw.__all__)) == len(thetagw.__all__)
    assert set(thetagw.__all__) == set(names)


def test_module_all_lists_are_disjoint():
    # a star import lets a later module shadow an earlier one's name silently
    seen = {}
    for label, module in MODULES.items():
        for name in module.__all__:
            assert name not in seen, f"{name} in both {seen.get(name)} and {label}"
            seen[name] = label


def test_package_names_are_the_module_objects():
    for module in MODULES.values():
        for name in module.__all__:
            assert getattr(thetagw, name) is getattr(module, name), name
