import photoent


def test_public_names_resolve_once():
    names = photoent.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(photoent, name)]
    assert not missing, missing
