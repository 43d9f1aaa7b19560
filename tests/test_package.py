"""Package surface."""

import types

import isobench


def test_all_names_resolve_and_none_is_a_module():
    assert isobench.__all__
    for name in isobench.__all__:
        assert not isinstance(getattr(isobench, name), types.ModuleType), name

