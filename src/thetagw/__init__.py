"""Branching processes whose iterates stay inside one two-parameter family.

The offspring generating function f solves (A - f(s))^(-theta) =
a (A - s)^(-theta) + c, so every n-step iterate is the same expression with
(a, c) replaced by (a^n, c (a^n - 1)/(a - 1)). The package classifies
parameter sets, evaluates offspring laws and explicit iterates, derives
extinction and explosion time distributions, builds the conditioned
(never-absorbed) chain and a continuous-time embedding, and checks all of it
by simulation.

``import thetagw`` loads no module: the first use of a public name imports
them all, so ``import thetagw.params`` alone, or ``thetagw classify``, never
loads numpy.
"""

import importlib

__version__ = "0.1.0"

#: the modules whose __all__ lists, in this order, make up the package's names
_MODULES = ("absorption", "embedding", "errors", "offspring", "params", "pgf", "qprocess",
            "simulate", "verify")


def __getattr__(name: str):
    """Import the modules on first use of a public name (PEP 562).

    A private or submodule name raises at once, so ``from thetagw import cli``
    leaves the import system to load the CLI alone.
    """
    if name == "__all__" or not (name.startswith("_") or name in (*_MODULES, "cli", "series")):
        if "__all__" not in globals():
            names = []
            for mod in _MODULES:
                module = importlib.import_module(f".{mod}", __name__)
                globals().update({n: getattr(module, n) for n in module.__all__})
                names += module.__all__
            globals()["__all__"] = names
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
