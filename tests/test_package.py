"""The package root's public names."""

import qudit_bell
from qudit_bell import cli, expressions, local_models, optimize, quantum


def test_root_exports_every_module_name_once():
    modules = (expressions, local_models, optimize, quantum)
    expected = [name for module in modules for name in module.__all__]
    assert qudit_bell.__all__ == expected
    assert len(set(expected)) == len(expected)
    for module in modules:
        for name in module.__all__:
            assert getattr(qudit_bell, name) is getattr(module, name)


def test_cross_check_error_is_exported_and_a_runtime_error():
    assert issubclass(qudit_bell.CrossCheckError, RuntimeError)
    assert cli.CrossCheckError is qudit_bell.CrossCheckError
