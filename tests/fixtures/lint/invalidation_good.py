"""INV001 negative fixture: direct, transitive and dunder paths."""


class MiniDatabase:
    def __init__(self):
        self.tables = {}

    def invalidate_caches(self):
        self._plan_cache = {}

    def load_table(self, name, rows):
        self.tables[name] = rows
        self.invalidate_caches()

    def apply(self, config):
        self._apply(config)

    def _apply(self, config):
        self._built = config
        self.invalidate_caches()

    def __setstate__(self, state):
        self.tables = dict(state)


class DictEncodedDatabase:
    """Dictionary cache invalidated through the invalidate_caches path."""

    def __init__(self):
        self.tables = {}
        self._dict_cache = DictCache()

    def invalidate_caches(self):
        self._plan_cache = {}
        self._dict_cache.invalidate()

    def load_table(self, name, rows):
        self.tables[name] = rows
        self.invalidate_caches()


class DictCache:
    def invalidate(self):
        pass


class ShardedDatabase:
    """Shared-memory segments released through the invalidate_caches path."""

    def __init__(self):
        self.tables = {}
        self._shard_runtime = PartitionRuntime()

    def invalidate_caches(self):
        self._plan_cache = {}
        self._shard_runtime.invalidate()

    def load_partition(self, name, rows):
        self.tables[name].append_rows(rows)
        self.invalidate_caches()


class PartitionRuntime:
    def invalidate(self):
        pass


class TemplatedDatabase:
    """Template/subplan caches invalidated through invalidate_caches."""

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
        self.invalidate_caches()


class KernelDatabase:
    """Fused-kernel cache invalidated through invalidate_caches."""

    def __init__(self):
        self.tables = {}
        self._kernel_cache = KernelCache()

    def invalidate_caches(self):
        self._plan_cache = {}
        self._kernel_cache.invalidate()

    def append(self, name, rows):
        self.tables[name].extend(rows)
        self.invalidate_caches()


class TemplateCache:
    def invalidate(self):
        pass


class SubplanCache:
    def invalidate(self):
        pass


class KernelCache:
    def invalidate(self):
        pass


class NotADatabase:
    """Defines no invalidate_caches, so INV001 never applies to it."""

    def load_table(self, name, rows):
        self.tables = {name: rows}
