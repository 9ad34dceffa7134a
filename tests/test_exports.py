import quintic_periods
from quintic_periods import numkernel


def test_export_lists_resolve_without_repeats():
    for module in (quintic_periods, numkernel):
        names = module.__all__
        assert len(set(names)) == len(names), module.__name__
        for name in names:
            getattr(module, name)
