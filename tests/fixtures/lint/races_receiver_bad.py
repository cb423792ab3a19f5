"""LCK002 positive: the shape of the unlocked ``Database.bind`` counter.

``Catalog`` owns no lock and never sees a pool, but ``Session`` hands
its workers a closure that calls ``self.db.bind(...)``: every worker
then runs ``bind`` on the one ``Catalog`` the session holds."""


class Catalog:
    def __init__(self):
        self.binds = 0
        self._bound = {}

    def bind(self, sql):
        if sql in self._bound:
            return self._bound[sql]
        self.binds += 1
        return sql.lower()


class Session:
    def __init__(self, db, pool):
        self.db = db
        self._pool = pool

    def measure(self, queries):
        def run(query):
            return self.db.bind(query)

        return self._pool._map(run, queries)
