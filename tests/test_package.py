"""The package namespace: what `import cvqkd` exports."""

import inspect

import cvqkd
from cvqkd import errors, gaussian, keyrate, noise, tomography


def test_all_lists_exactly_the_public_functions_and_classes():
    """__all__ names every public function and class the five library
    modules define, and nothing else but CANONICAL_SETTINGS and __version__."""
    defined = {
        name
        for module in (gaussian, keyrate, noise, tomography, errors)
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert len(cvqkd.__all__) == len(set(cvqkd.__all__))
    assert set(cvqkd.__all__) == defined | {"CANONICAL_SETTINGS", "__version__"}


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from cvqkd import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(cvqkd.__all__)
