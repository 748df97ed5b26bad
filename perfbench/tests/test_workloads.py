"""The seeded demand generator behind every served workload."""

import pytest

from workloads import NAMES, SERVED, DemandStream

PATHS = ["db1/seg/rel/o%d" % i for i in range(24)]


def take(stream, n):
    return [stream.next_txn() for _ in range(n)]


def test_same_seed_and_stream_give_the_same_transactions():
    a = DemandStream(PATHS, seed=7, stream=3, demands=3, write_ratio=0.4)
    b = DemandStream(PATHS, seed=7, stream=3, demands=3, write_ratio=0.4)
    assert take(a, 200) == take(b, 200)


def test_other_seed_or_stream_gives_other_transactions():
    base = take(DemandStream(PATHS, 7, 3, 3, 0.4), 50)
    assert take(DemandStream(PATHS, 8, 3, 3, 0.4), 50) != base
    assert take(DemandStream(PATHS, 7, 4, 3, 0.4), 50) != base


def test_objects_within_a_transaction_are_distinct():
    stream = DemandStream(PATHS, seed=1, stream=0, demands=4, write_ratio=0.5)
    for txn in take(stream, 500):
        paths = [path for _, path in txn]
        assert len(paths) == 4
        assert len(set(paths)) == 4
        assert set(paths) <= set(PATHS)


def test_write_ratio_sets_the_verb_mix():
    reads = take(DemandStream(PATHS, 1, 0, 4, 0.0), 200)
    assert {verb for txn in reads for verb, _ in txn} == {"SLOCK"}
    mixed = [v for txn in take(DemandStream(PATHS, 1, 0, 3, 0.4), 2000) for v, _ in txn]
    assert 0.35 < mixed.count("XLOCK") / len(mixed) < 0.45


def test_more_demands_than_objects_is_refused():
    with pytest.raises(ValueError):
        DemandStream(PATHS[:2], 1, 0, 3, 0.0)


def test_served_workloads_fit_two_connections():
    assert len(NAMES) == 3
    for spec in SERVED.values():
        assert spec["connections"] <= 2
        assert spec["slots"] <= spec["depth"]
