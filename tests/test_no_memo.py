"""Nothing in ncpoly is memoized between calls (README): no function bound in
one of its modules, nor a method of a class bound there, carries a
``functools`` cache.  Every call does its own work, so a speed-up has to
make that work cheaper rather than skip it."""

import importlib
import inspect
import pkgutil

import ncpoly


def _bound_callables():
    for info in pkgutil.iter_modules(ncpoly.__path__):
        module = importlib.import_module(f"ncpoly.{info.name}")
        for name, obj in vars(module).items():
            yield f"{module.__name__}.{name}", obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    # a staticmethod or classmethod keeps the function on
                    # __func__, a property on fget
                    inner = getattr(member, "__func__", None) or getattr(member, "fget", member)
                    yield f"{module.__name__}.{name}.{attr}", inner


def test_no_functools_cache_in_the_package():
    bound = dict(_bound_callables())
    assert len(bound) > 100
    assert [name for name, obj in bound.items() if hasattr(obj, "cache_info")] == []
