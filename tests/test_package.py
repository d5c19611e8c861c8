"""The public API: each module's __all__ declares its public names once,
and the package republishes them in module order."""

import importlib
import inspect
import pkgutil

import plantedscan

# the modules the package republishes, in order; cli is the command line
# and is not exported
PUBLIC_MODULES = ("errors", "seeding", "kernels", "model", "scan", "boundary",
                  "lr", "audit", "harness")


def public_modules():
    return [importlib.import_module(f"plantedscan.{name}") for name in PUBLIC_MODULES]


def test_every_module_declares_all():
    names = sorted(m.name for m in pkgutil.iter_modules(plantedscan.__path__)
                   if m.name != "__main__")
    assert names == sorted(PUBLIC_MODULES + ("cli",))
    for name in names:
        module = importlib.import_module(f"plantedscan.{name}")
        assert isinstance(module.__all__, list), name


def test_package_all_is_the_module_lists_in_order():
    expected = ["__version__"] + [name for m in public_modules() for name in m.__all__]
    assert plantedscan.__all__ == expected
    assert len(set(expected)) == len(expected)
    assert "main" not in plantedscan.__all__


def test_each_name_is_its_defining_modules_object():
    for module in public_modules():
        for name in module.__all__:
            obj = vars(module)[name]
            assert getattr(plantedscan, name) is obj, name
            # a module lists only what it defines, not what it imports
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == module.__name__, name
