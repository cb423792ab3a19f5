"""LCK001 negative fixture: guarded, thread-local or local writes."""

import threading


class Service:
    def __init__(self, session):
        self._session = session
        self._lock = threading.Lock()
        self._thread_local = threading.local()
        self.hits = 0

    def run(self, items):
        def work(item):
            with self._lock:
                self.hits += 1
            self._thread_local.count = item
            box = Box()
            box.value = item
            return box

        return self._session._map(work, items)


class Box:
    value = None


class ShardService:
    """Shard-worker accounting guarded; segment map keyed locally."""

    def __init__(self, pool):
        self._pool = pool
        self._lock = threading.Lock()
        self.bytes_shared = 0

    def scatter(self, shards):
        def scan(shard):
            with self._lock:
                self.bytes_shared += shard.nbytes
            segments = {}
            segments[shard.name] = shard
            return segments

        return [self._pool.submit(scan, shard) for shard in shards]


class JobRunner:
    """Bound-method worker: shared writes named and lock-guarded."""

    def __init__(self, pool):
        self._pool = pool
        self._lock = threading.Lock()
        self.completed = 0

    def submit(self, job):
        return self._pool.submit(self._execute, job)

    def _execute(self, job):
        job.status = "running"
        job.run()
        with self._lock:
            self.completed += 1
        return job


class KernelCache:
    """Fused-filter cache: hit accounting lock-guarded, kernels local."""

    def __init__(self, pool):
        self._pool = pool
        self._lock = threading.Lock()
        self.hit_count = 0

    def warm(self, shapes):
        def compile_shape(shape):
            kernel = tuple(shape)
            with self._lock:
                self.hit_count += 1
            return kernel

        return [self._pool.submit(compile_shape, s) for s in shapes]


class SlicePool:
    """Morsel workers: accounting lock-guarded, results local."""

    def __init__(self, executor):
        self._executor = executor
        self._lock = threading.Lock()
        self.morsels_done = 0

    def map_slices(self, kernel, slices):
        def run(sl):
            result = kernel(sl)
            with self._lock:
                self.morsels_done += 1
            return result

        return [f.result() for f in
                [self._executor.submit(run, sl) for sl in slices]]
