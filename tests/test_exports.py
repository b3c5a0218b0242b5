"""The package's export list."""

import padicdyn


def test_every_exported_name_resolves_and_is_listed_once():
    names = padicdyn.__all__
    assert len(names) == len(set(names))
    # a stale entry would make `from padicdyn import *` raise AttributeError
    assert [name for name in names if not hasattr(padicdyn, name)] == []
