"""The package's public names are its modules' __all__ lists, declared once."""

import importlib
import os
import subprocess
import sys

import pytest

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


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from thetagw import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(thetagw.__all__)
    for module in MODULES.values():
        for name in module.__all__:
            assert namespace[name] is getattr(module, name), name


def test_dir_lists_every_public_name():
    assert set(thetagw.__all__) <= set(dir(thetagw))


STAR = "namespace = {}\nexec('from thetagw import *', namespace)\ndel namespace['__builtins__']\n"
DIR = "names = dir(thetagw)\n"


@pytest.mark.parametrize("script", [STAR + DIR, DIR + STAR], ids=["star-first", "dir-first"])
def test_first_star_import_or_dir_loads_the_modules(script):
    # here the modules are loaded already; in a fresh interpreter the star
    # import or dir() is the first touch, so it goes through __getattr__ or
    # __dir__, and a submodule name such as cli stays unloaded
    check = (
        "assert sorted(namespace) == sorted(thetagw.__all__)\n"
        "assert set(thetagw.__all__) <= set(names) and 'cli' not in names\n"
        "print(len(thetagw.__all__))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    r = subprocess.run([sys.executable, "-c", "import thetagw\n" + script + check],
                       capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert r.returncode == 0, r.stderr
    assert int(r.stdout) == len(thetagw.__all__)
