"""LCK001 positive fixture: unguarded shared writes under the pool."""


class Service:
    def __init__(self, session):
        self._session = session
        self.hits = 0
        self.total = 0

    def run(self, items):
        def work(item):
            self.hits += 1
            return item

        return self._session._map(work, items)

    def run_lambda(self, pool, items):
        return pool.map(lambda item: self._bump(item), items)

    def _bump(self, item):
        self.total = self.total + 1
        return item


class ShardService:
    """Per-shard workers racing on shared scatter accounting."""

    def __init__(self, pool):
        self._pool = pool
        self.bytes_shared = 0

    def scatter(self, shards):
        def scan(shard):
            self.bytes_shared += shard.nbytes
            return shard

        return [self._pool.submit(scan, shard) for shard in shards]


class JobRunner:
    """Long-lived service submitting a bound method as the worker."""

    def __init__(self, pool):
        self._pool = pool
        self.completed = 0

    def submit(self, job):
        return self._pool.submit(self._execute, job)

    def _execute(self, job):
        job.run()
        self.completed += 1
        return job


class SlicePool:
    """Morsel workers racing on shared slice accounting."""

    def __init__(self, executor):
        self._executor = executor
        self.morsels_done = 0

    def map_slices(self, kernel, slices):
        def run(sl):
            result = kernel(sl)
            self.morsels_done += 1
            return result

        return [f.result() for f in
                [self._executor.submit(run, sl) for sl in slices]]


class KernelCache:
    """Fused-filter cache whose hit accounting misses the lock."""

    def __init__(self, pool):
        self._pool = pool
        self.hit_count = 0

    def warm(self, shapes):
        def compile_shape(shape):
            kernel = tuple(shape)
            self.hit_count += 1
            return kernel

        return [self._pool.submit(compile_shape, s) for s in shapes]
