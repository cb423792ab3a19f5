"""LCK002: two classes whose ``run`` methods both nest a ``work``
closure.  Only ``Racy``'s writes outside the lock; ``Careful``'s must
not stand in for it (nor the other way round)."""

import threading


class Racy:
    def __init__(self, pool):
        self._pool = pool
        self._lock = threading.Lock()
        self.hits = 0

    def run(self, items):
        def work(item):
            self.hits += 1
            return item

        return [self._pool.submit(work, item) for item in items]


class Careful:
    def __init__(self, pool):
        self._pool = pool
        self._lock = threading.Lock()
        self.hits = 0

    def run(self, items):
        def work(item):
            with self._lock:
                self.hits += 1
            return item

        return [self._pool.submit(work, item) for item in items]
