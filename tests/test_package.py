import fblsec


def test_public_names_resolve_and_are_listed_once():
    names = fblsec.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(fblsec, name)]
    assert missing == []
