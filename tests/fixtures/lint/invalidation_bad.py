"""INV001 positive fixture: mutators that never invalidate."""


class MiniDatabase:
    def __init__(self):
        self.tables = {}
        self.statistics = {}

    def invalidate_caches(self):
        self._plan_cache = {}

    def load_table(self, name, rows):
        self.tables[name] = rows

    def insert(self, name, rows):
        self.tables[name].extend(rows)


class DictEncodedDatabase:
    """Resetting a derived cache by hand is not invalidate_caches."""

    def __init__(self):
        self.tables = {}
        self._dict_cache = {}

    def invalidate_caches(self):
        self._plan_cache = {}
        self._dict_cache = {}

    def append(self, name, rows):
        self.tables[name].extend(rows)
        self._dict_cache = {}


class ShardedDatabase:
    """Invalidating the shard runtime by hand is not invalidate_caches."""

    def __init__(self):
        self.tables = {}
        self._shard_runtime = PartitionRuntime()

    def invalidate_caches(self):
        self._plan_cache = {}
        self._shard_runtime.invalidate()

    def load_partition(self, name, rows):
        self.tables[name].append_rows(rows)
        self._shard_runtime.invalidate()


class TemplatedDatabase:
    """Hand-clearing template/subplan caches is not invalidate_caches."""

    def __init__(self):
        self.tables = {}
        self._template_cache = TemplateCache()
        self._subplan_cache = SubplanCache()

    def invalidate_caches(self):
        self._plan_cache = {}
        self._template_cache.invalidate()
        self._subplan_cache.invalidate()

    def append(self, name, rows):
        self.tables[name].extend(rows)
        self._template_cache.invalidate()
        self._subplan_cache.invalidate()


class KernelDatabase:
    """Hand-clearing the fused-kernel cache is not invalidate_caches."""

    def __init__(self):
        self.tables = {}
        self._kernel_cache = KernelCache()

    def invalidate_caches(self):
        self._plan_cache = {}
        self._kernel_cache.invalidate()

    def append(self, name, rows):
        self.tables[name].extend(rows)
        self._kernel_cache.invalidate()


class PartitionRuntime:
    def invalidate(self):
        pass


class KernelCache:
    def invalidate(self):
        pass


class TemplateCache:
    def invalidate(self):
        pass


class SubplanCache:
    def invalidate(self):
        pass
