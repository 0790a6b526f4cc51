"""Unit tests for the coherence directory."""

from repro.sim.coherence import Directory, DirectoryEntry


def make_dir():
    return Directory()


class TestDirectory:
    def test_empty_line_has_no_state(self):
        directory = make_dir()
        assert directory.peek(5) is None
        assert directory.owner_of(5) is None
        assert directory.sharers_of(5) == set()

    def test_shared_fill(self):
        directory = make_dir()
        directory.record_fill(5, tile=1, exclusive=False)
        directory.record_fill(5, tile=2, exclusive=False)
        assert directory.sharers_of(5) == {1, 2}
        assert directory.owner_of(5) is None

    def test_exclusive_fill_sets_owner(self):
        directory = make_dir()
        directory.record_fill(5, tile=3, exclusive=True)
        assert directory.owner_of(5) == 3
        assert 3 in directory.sharers_of(5)

    def test_read_refill_after_ownership_downgrades(self):
        directory = make_dir()
        directory.record_fill(5, tile=3, exclusive=True)
        directory.record_fill(5, tile=3, exclusive=False)
        assert directory.owner_of(5) is None

    def test_private_eviction_clears_sharer(self):
        directory = make_dir()
        directory.record_fill(5, tile=1, exclusive=True)
        directory.record_private_eviction(5, tile=1)
        assert directory.peek(5) is None  # entry garbage-collected

    def test_private_eviction_keeps_other_sharers(self):
        directory = make_dir()
        directory.record_fill(5, tile=1, exclusive=False)
        directory.record_fill(5, tile=2, exclusive=False)
        directory.record_private_eviction(5, tile=1)
        assert directory.sharers_of(5) == {2}

    def test_eviction_of_owner_clears_ownership(self):
        directory = make_dir()
        directory.record_fill(5, tile=1, exclusive=True)
        directory.record_fill(5, tile=2, exclusive=False)
        directory.record_private_eviction(5, tile=1)
        assert directory.owner_of(5) is None
        assert directory.sharers_of(5) == {2}

    def test_eviction_of_unknown_line_is_noop(self):
        directory = make_dir()
        directory.record_private_eviction(99, tile=0)  # no crash

    def test_drop(self):
        directory = make_dir()
        directory.record_fill(5, tile=1, exclusive=True)
        directory.drop(5)
        assert directory.peek(5) is None

    def test_sharers_copy_is_defensive(self):
        directory = make_dir()
        directory.record_fill(5, tile=1, exclusive=False)
        sharers = directory.sharers_of(5)
        sharers.add(99)
        assert directory.sharers_of(5) == {1}

    def test_entry_repr(self):
        entry = DirectoryEntry()
        entry.sharers.add(2)
        entry.owner = 2
        assert "owner=2" in repr(entry)
