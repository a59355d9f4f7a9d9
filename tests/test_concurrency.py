"""Threaded access: results must be identical to single-threaded recomputation."""

import threading

import spreadpoly.factor as factor_mod
import spreadpoly.sequences as seq_mod
from spreadpoly import SequenceCache, cross_check_phi, factor_zpread, lucas, psi


def test_parallel_callers_get_identical_values():
    results = [{} for _ in range(8)]
    errors = []

    def worker(slot):
        try:
            for n in range(1, 40):
                results[slot][("lucas", n)] = lucas(n)
                results[slot][("psi", n)] = psi(n)
                results[slot][("factor", n)] = factor_zpread(n).product
                cross_check_phi(n)
        except Exception as exc:  # surface in the main thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert not errors
    for other in results[1:]:
        assert other == results[0]


def test_racing_writers_keep_cache_consistent():
    cache = SequenceCache()
    seen = []

    def writer():
        seen.append(cache.get_or_compute("fib", 7, lambda: 13))

    threads = [threading.Thread(target=writer) for _ in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert seen == [13] * 16
    assert cache.table("fib") == {7: 13}


def test_corrupted_phi_is_invisible_to_other_threads():
    errors = []

    def worker():
        try:
            cross_check_phi(9)
        except Exception as exc:  # surface in the main thread
            errors.append(exc)

    with factor_mod.corrupted_phi(9):
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert not errors


def test_fresh_cache_matches_warm_cache():
    warm = [lucas(n) for n in range(30)]
    old = seq_mod.CACHE
    seq_mod.CACHE = SequenceCache()
    try:
        cold = [lucas(n) for n in range(30)]
    finally:
        seq_mod.CACHE = old
    assert cold == warm
