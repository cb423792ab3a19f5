"""LCK002 positive: a lock-owning class hands the pool a *closure*, and
the closure's write misses the lock."""

import threading


class Counter:
    def __init__(self, pool):
        self._pool = pool
        self._lock = threading.Lock()
        self.hits = 0

    def run(self, items):
        def work(item):
            self.hits += 1
            return item

        return [self._pool.submit(work, item) for item in items]
