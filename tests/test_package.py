"""The package's export list."""

import orbitfold


def test_all_is_sorted_unique_and_resolves():
    names = orbitfold.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [n for n in names if not hasattr(orbitfold, n)]
    assert missing == []
