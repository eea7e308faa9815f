"""The Schur-complement search of `hermitian.enumerate_semi_integral`
against its generate-and-test predecessor `util.enumerate_by_psd_tests`,
the keys it builds per key it returns, and the enumeration that the
series-ring benchmark checks."""

import hashlib

from hermfj import hermitian
from hermfj.field import make_field
from hermfj.hermitian import enumerate_semi_integral
from util import all_tags, enumerate_by_psd_tests, principal_minor

#: enumerate_semi_integral(3, 3) over Q(sqrt(-1)): the key count and the
#: sha256 of the keys' text forms, one per line, in the returned order
PINNED_COUNT = 780
PINNED_SHA256 = "1a16acd88e8b0a2edf4334ebf6af74023297d4b49701165f2ba38fc1dc3995ae"


def test_schur_search_matches_psd_test_oracle():
    """List for list, order included, in all five fields and over Q(i) at
    (g, B) = (4, 3).  At g = 4 the compared lists hold keys with a zero
    diagonal entry after a nonzero one (a zero pivot below a nonzero one)
    and keys with a singular nonzero leading 2x2 block (a zero pivot at the
    second Schur level, so the third eliminates on the first pivot)."""
    runs = [(tag, g, bound) for tag in all_tags() for g, bound in ((1, 4), (2, 4), (3, 3), (4, 2))]
    runs.append((make_field(-1), 4, 3))
    for tag, g, bound in runs:
        got = enumerate_semi_integral(g, bound, tag)
        assert got == enumerate_by_psd_tests(g, bound, tag), (tag, g, bound)
        if g < 4:
            continue
        diagonals = [[t.entries[i][i] for i in range(g)] for t in got]
        assert any(diag[0] and 0 in diag[1:] for diag in diagonals), (tag, g, bound)
        assert any(principal_minor(t, (0, 1)) == 0 and diag[0] and diag[1]
                   for t, diag in zip(got, diagonals)), (tag, g, bound)


def test_every_key_built_is_returned(monkeypatch):
    """Keys built by `_store` inside the enumeration over keys returned is
    at most 1/0.9: the search does not build candidates to reject them."""
    built = [0]
    store = hermitian._store

    def counted(*args):
        built[0] += 1
        return store(*args)

    monkeypatch.setattr(hermitian, "_store", counted)
    for d, g, bound in ((-1, 3, 3), (-1, 3, 4), (-3, 3, 3)):
        built[0] = 0
        keys = enumerate_semi_integral(g, bound, make_field(d))
        assert len(keys) <= built[0] <= len(keys) / 0.9, (d, g, bound, built[0], len(keys))


def test_series_ring_enumeration_is_pinned():
    keys = enumerate_semi_integral(3, 3, make_field(-1))
    text = "".join(t.to_text() + "\n" for t in keys).encode()
    assert len(keys) == PINNED_COUNT
    assert hashlib.sha256(text).hexdigest() == PINNED_SHA256
