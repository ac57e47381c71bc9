import importlib
import pkgutil

import toroharm

#: point wrappers retired in favour of length-1 array calls
REMOVED = ("ReducedQuaternion", "eval_T", "eval_T0", "eval_W", "fueter", "eval_I_star",
           "eval_J", "eval_Jhat", "evaluate_series", "element_I_star")


def test_public_names_resolve():
    # a stale __all__ entry otherwise fails only on `from toroharm import *`
    modules = [toroharm] + [importlib.import_module(f"toroharm.{info.name}")
                            for info in pkgutil.iter_modules(toroharm.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
        for name in REMOVED:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
