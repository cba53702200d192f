"""The package's public names: each module's __all__, declared once."""

import nbl_lab
from nbl_lab import experiments, hyperspace, readout, rtw, sinus

MODULES = (experiments, hyperspace, readout, rtw, sinus)


def test_all_has_no_duplicates():
    assert len(nbl_lab.__all__) == len(set(nbl_lab.__all__))


def test_all_is_the_union_of_the_module_lists():
    expected = {"__version__"}.union(*(module.__all__ for module in MODULES))
    assert set(nbl_lab.__all__) == expected


def test_each_name_is_the_defining_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(nbl_lab, name) is getattr(module, name), name
    assert nbl_lab.__version__ is nbl_lab._version.__version__


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from nbl_lab import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(nbl_lab.__all__)
