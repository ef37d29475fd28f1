import importlib
import pkgutil

import geocluster


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_exception_classes_are_defined_only_in_errors():
    # One class per exit code: a case is told apart by its message, not by
    # a subclass, so no module but `errors` defines an exception.
    for module in pkgutil.walk_packages(geocluster.__path__, "geocluster."):
        importlib.import_module(module.name)
    defined = {f"{cls.__module__}.{cls.__qualname__}" for cls in _subclasses(BaseException)
               if cls.__module__.partition(".")[0] == "geocluster"}
    assert defined == {"geocluster.errors.GeoclusterError", "geocluster.errors.DataError",
                       "geocluster.errors.NumericalError"}
