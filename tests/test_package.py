import importlib
import pkgutil

import toroharm

#: point wrappers retired in favour of length-1 array calls, and helpers
#: that no command, check or benchmark workload called
REMOVED = ("ReducedQuaternion", "eval_T", "eval_T0", "eval_W", "fueter", "eval_I_star",
           "eval_J", "eval_Jhat", "evaluate_series", "element_I_star",
           "series_to_json", "series_from_json", "elliptic_E", "gamma_half_ratio",
           "fourier_power_check")


def test_public_names_resolve():
    # a stale __all__ entry otherwise fails only on `from toroharm import *`
    modules = [toroharm] + [importlib.import_module(f"toroharm.{info.name}")
                            for info in pkgutil.iter_modules(toroharm.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
        for name in REMOVED:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert not hasattr(toroharm.TorusDomain, "volume")
    assert not hasattr(toroharm.SeriesExpansion, "meta")
