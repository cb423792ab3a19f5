"""TPC-H database generator (uniform and skewed).

A scaled-down dbgen: all eight tables with the standard schema (wide
comment columns omitted to keep rows at realistic-but-modest widths) and
standard PK/FK relationships.  ``zipf=0.0`` produces the usual uniform
value distributions; ``zipf=1.0`` reproduces the paper's skewed database,
generated "with a Zipfian factor of 1" using Chaudhuri & Narasayya's
skewed TPC-D generator — here the same Zipf weighting is applied to every
attribute-value and foreign-key choice.

``scale=1.0`` yields a 240k-row lineitem (1/250 of the paper's 10 GB
databases), matching the NREF instance's virtual-hardware regime.
"""

import numpy as np

from ..catalog.catalog import Catalog
from ..catalog.schema import ColumnDef, ForeignKey, TableSchema
from ..common.rng import make_rng, spawn
from ..engine.database import Database
from ..storage.encoding import stable_order
from ..storage.types import date, float_, integer, varchar
from .text import Pooled, PooledTable, zipf_column

BASE_ROWS = {
    "region": 5,
    "nation": 25,
    "supplier": 400,
    "customer": 6_000,
    "part": 8_000,
    "partsupp": 32_000,
    "orders": 60_000,
    "lineitem": 240_000,
}

SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
SHIPMODES = ["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"]
BRANDS = [f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6)]
TYPES = [
    f"{a} {b} {c}"
    for a in ("STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO")
    for b in ("ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED")
    for c in ("TIN", "NICKEL", "BRASS", "STEEL", "COPPER")
]
CONTAINERS = [
    f"{a} {b}"
    for a in ("SM", "MED", "LG", "JUMBO", "WRAP")
    for b in ("CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM")
]
NATIONS = [
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
    "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
    "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA",
    "ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM",
    "UNITED STATES",
]
REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]

# o_orderdate range in day numbers: 1992-01-01 .. 1998-08-02.
DATE_LO, DATE_HI = 8036, 10440


def tpch_catalog():
    """The TPC-H schema (rev 1.3.0) minus the wide comment columns."""
    region = TableSchema(
        "region",
        [
            ColumnDef("r_regionkey", integer(), "regionkey"),
            ColumnDef("r_name", varchar(12), "region_name"),
        ],
        primary_key=("r_regionkey",),
    )
    nation = TableSchema(
        "nation",
        [
            ColumnDef("n_nationkey", integer(), "nationkey"),
            ColumnDef("n_name", varchar(16), "nation_name"),
            ColumnDef("n_regionkey", integer(), "regionkey"),
        ],
        primary_key=("n_nationkey",),
        foreign_keys=[ForeignKey(("n_regionkey",), "region", ("r_regionkey",))],
    )
    supplier = TableSchema(
        "supplier",
        [
            ColumnDef("s_suppkey", integer(), "suppkey"),
            ColumnDef("s_name", varchar(18), ""),
            ColumnDef("s_nationkey", integer(), "nationkey"),
            ColumnDef("s_acctbal", float_(), "balance"),
            ColumnDef("s_phone", varchar(15), "", indexable=False),
        ],
        primary_key=("s_suppkey",),
        foreign_keys=[
            ForeignKey(("s_nationkey",), "nation", ("n_nationkey",))
        ],
    )
    customer = TableSchema(
        "customer",
        [
            ColumnDef("c_custkey", integer(), "custkey"),
            ColumnDef("c_name", varchar(18), ""),
            ColumnDef("c_nationkey", integer(), "nationkey"),
            ColumnDef("c_acctbal", float_(), "balance"),
            ColumnDef("c_mktsegment", varchar(10), "segment"),
        ],
        primary_key=("c_custkey",),
        foreign_keys=[
            ForeignKey(("c_nationkey",), "nation", ("n_nationkey",))
        ],
    )
    part = TableSchema(
        "part",
        [
            ColumnDef("p_partkey", integer(), "partkey"),
            ColumnDef("p_name", varchar(30), "", indexable=False),
            ColumnDef("p_brand", varchar(10), "brand"),
            ColumnDef("p_type", varchar(24), "ptype"),
            ColumnDef("p_size", integer(), "size"),
            ColumnDef("p_container", varchar(10), "container"),
            ColumnDef("p_retailprice", float_(), "price"),
        ],
        primary_key=("p_partkey",),
    )
    partsupp = TableSchema(
        "partsupp",
        [
            ColumnDef("ps_partkey", integer(), "partkey"),
            ColumnDef("ps_suppkey", integer(), "suppkey"),
            ColumnDef("ps_availqty", integer(), "quantity"),
            ColumnDef("ps_supplycost", float_(), "price"),
        ],
        primary_key=("ps_partkey", "ps_suppkey"),
        foreign_keys=[
            ForeignKey(("ps_partkey",), "part", ("p_partkey",)),
            ForeignKey(("ps_suppkey",), "supplier", ("s_suppkey",)),
        ],
    )
    orders = TableSchema(
        "orders",
        [
            ColumnDef("o_orderkey", integer(), "orderkey"),
            ColumnDef("o_custkey", integer(), "custkey"),
            ColumnDef("o_orderstatus", varchar(1), "status"),
            ColumnDef("o_totalprice", float_(), "price"),
            ColumnDef("o_orderdate", date(), "date"),
            ColumnDef("o_orderpriority", varchar(15), "priority"),
            ColumnDef("o_shippriority", integer(), ""),
        ],
        primary_key=("o_orderkey",),
        foreign_keys=[
            ForeignKey(("o_custkey",), "customer", ("c_custkey",))
        ],
    )
    lineitem = TableSchema(
        "lineitem",
        [
            ColumnDef("l_orderkey", integer(), "orderkey"),
            ColumnDef("l_linenumber", integer(), ""),
            ColumnDef("l_partkey", integer(), "partkey"),
            ColumnDef("l_suppkey", integer(), "suppkey"),
            ColumnDef("l_quantity", integer(), "quantity"),
            ColumnDef("l_extendedprice", float_(), "price"),
            ColumnDef("l_discount", float_(), ""),
            ColumnDef("l_tax", float_(), ""),
            ColumnDef("l_returnflag", varchar(1), "status"),
            ColumnDef("l_linestatus", varchar(1), "status"),
            ColumnDef("l_shipdate", date(), "date"),
            ColumnDef("l_commitdate", date(), "date"),
            ColumnDef("l_receiptdate", date(), "date"),
            ColumnDef("l_shipmode", varchar(10), "shipmode"),
        ],
        primary_key=("l_orderkey", "l_linenumber"),
        foreign_keys=[
            ForeignKey(("l_orderkey",), "orders", ("o_orderkey",)),
            ForeignKey(("l_partkey",), "part", ("p_partkey",)),
            ForeignKey(("l_suppkey",), "supplier", ("s_suppkey",)),
            ForeignKey(
                ("l_partkey", "l_suppkey"),
                "partsupp",
                ("ps_partkey", "ps_suppkey"),
            ),
        ],
    )
    return Catalog(
        [region, nation, supplier, customer, part, partsupp, orders, lineitem]
    )


def _pick(rng, pool, size, z):
    """Value choice helper: uniform when z == 0, Zipfian otherwise.

    Draws from a string pool stay :class:`~repro.datagen.text.Pooled`
    (the table encodes them from their codes); any other pool's are
    returned as values.
    """
    pool = np.asarray(pool, dtype=object if isinstance(pool[0], str) else None)
    if z <= 0:
        rows = rng.integers(0, len(pool), size).astype(np.int32)
        pooled = Pooled(pool, rows)
    else:
        pooled = zipf_column(rng, pool, size, z)
    return pooled if pool.dtype == object else pooled.values()


def phone_numbers(rng, size):
    """``size`` phone numbers ``NN-NNN-NNN-NNNN`` from one ``integers``
    call over the four fields' bounds tiled per row: the numbers (and
    the generator state) four interleaved scalar draws per row give."""
    fields = rng.integers(
        (10, 100, 100, 1000), (35, 999, 999, 9999), (size, 4)
    ).tolist()
    return np.array([f"{a}-{b}-{c}-{d}" for a, b, c, d in fields], dtype=object)


def generate_tpch(scale=1.0, zipf=0.0, seed=1992):
    """Generate all eight tables; returns ``{table: {column: array}}``,
    each table a :class:`~repro.datagen.text.PooledTable`."""
    rows = {
        name: max(5, int(count * scale)) if name not in ("region", "nation")
        else count
        for name, count in BASE_ROWS.items()
    }
    rng = make_rng(seed)
    z = float(zipf)

    region = {
        "r_regionkey": np.arange(rows["region"]),
        "r_name": np.array(REGIONS[: rows["region"]], dtype=object),
    }
    nation = {
        "n_nationkey": np.arange(rows["nation"]),
        "n_name": np.array(NATIONS[: rows["nation"]], dtype=object),
        "n_regionkey": np.arange(rows["nation"]) % rows["region"],
    }

    r = spawn(rng, "supplier")
    n = rows["supplier"]
    supplier = {
        "s_suppkey": np.arange(1, n + 1),
        "s_name": np.array(
            [f"Supplier#{i:09d}" for i in range(1, n + 1)], dtype=object
        ),
        "s_nationkey": _pick(r, np.arange(rows["nation"]), n, z),
        "s_acctbal": np.round(r.uniform(-999.99, 9999.99, n), 2),
        "s_phone": phone_numbers(r, n),
    }

    r = spawn(rng, "customer")
    n = rows["customer"]
    customer = {
        "c_custkey": np.arange(1, n + 1),
        "c_name": np.array(
            [f"Customer#{i:09d}" for i in range(1, n + 1)], dtype=object
        ),
        "c_nationkey": _pick(r, np.arange(rows["nation"]), n, z),
        "c_acctbal": np.round(r.uniform(-999.99, 9999.99, n), 2),
        "c_mktsegment": _pick(r, SEGMENTS, n, z),
    }

    r = spawn(rng, "part")
    n = rows["part"]
    part = {
        "p_partkey": np.arange(1, n + 1),
        "p_name": np.array(
            [f"part {i} shade {i % 91}" for i in range(1, n + 1)],
            dtype=object,
        ),
        "p_brand": _pick(r, BRANDS, n, z),
        "p_type": _pick(r, TYPES, n, z),
        "p_size": _pick(r, np.arange(1, 51), n, z).astype(np.int64),
        "p_container": _pick(r, CONTAINERS, n, z),
        "p_retailprice": np.round(
            900.0 + (np.arange(1, n + 1) % 1000) / 10.0
            + 100.0 * (np.arange(1, n + 1) % 10),
            2,
        ),
    }

    r = spawn(rng, "partsupp")
    n = rows["partsupp"]
    suppliers_per_part = max(1, n // rows["part"])
    ps_partkey = np.repeat(
        np.arange(1, rows["part"] + 1), suppliers_per_part
    )[:n]
    ps_suppkey = (
        (ps_partkey * 7 + np.arange(n) % suppliers_per_part * 13)
        % rows["supplier"] + 1
    )
    partsupp = {
        "ps_partkey": ps_partkey,
        "ps_suppkey": ps_suppkey,
        "ps_availqty": _pick(r, np.arange(1, 10_000, 7), n, z).astype(np.int64),
        "ps_supplycost": np.round(
            _pick(r, np.round(np.linspace(1.0, 1000.0, 500), 2), n, z)
            .astype(np.float64),
            2,
        ),
    }

    r = spawn(rng, "orders")
    n = rows["orders"]
    orders = {
        "o_orderkey": np.arange(1, n + 1),
        "o_custkey": _pick(
            r, np.arange(1, rows["customer"] + 1), n, z
        ).astype(np.int64),
        "o_orderstatus": _pick(r, ["F", "O", "P"], n, z),
        "o_totalprice": np.round(
            _pick(r, np.round(np.linspace(850.0, 450_000.0, 2000), 2), n, z)
            .astype(np.float64),
            2,
        ),
        "o_orderdate": _pick(
            r, np.arange(DATE_LO, DATE_HI), n, z
        ).astype(np.int64),
        "o_orderpriority": _pick(r, PRIORITIES, n, z),
        "o_shippriority": np.zeros(n, dtype=np.int64),
    }

    r = spawn(rng, "lineitem")
    n = rows["lineitem"]
    l_orderkey = _pick(
        r, np.arange(1, rows["orders"] + 1), n, z
    ).astype(np.int64)
    order = stable_order(l_orderkey, rows["orders"] + 1)
    l_orderkey = l_orderkey[order]
    linenumber = np.ones(n, dtype=np.int64)
    same = np.zeros(n, dtype=bool)
    same[1:] = l_orderkey[1:] == l_orderkey[:-1]
    run = np.arange(n)
    start = np.maximum.accumulate(np.where(~same, run, 0))
    linenumber = run - start + 1
    shipdate = (
        orders["o_orderdate"][l_orderkey - 1]
        + r.integers(1, 121, n)
    )
    # Pick (partkey, suppkey) pairs from partsupp so the composite FK
    # lineitem -> partsupp actually holds.
    ps_idx = _pick(r, np.arange(rows["partsupp"]), n, z).astype(np.int64)
    lineitem = {
        "l_orderkey": l_orderkey,
        "l_linenumber": linenumber,
        "l_partkey": partsupp["ps_partkey"][ps_idx].astype(np.int64),
        "l_suppkey": partsupp["ps_suppkey"][ps_idx].astype(np.int64),
        "l_quantity": _pick(r, np.arange(1, 51), n, z).astype(np.int64),
        "l_extendedprice": np.round(
            _pick(r, np.round(np.linspace(900.0, 105_000.0, 2000), 2), n, z)
            .astype(np.float64),
            2,
        ),
        "l_discount": np.round(
            _pick(r, np.arange(0, 11) / 100.0, n, z).astype(np.float64), 2
        ),
        "l_tax": np.round(
            _pick(r, np.arange(0, 9) / 100.0, n, z).astype(np.float64), 2
        ),
        "l_returnflag": _pick(r, ["A", "N", "R"], n, z),
        "l_linestatus": _pick(r, ["F", "O"], n, z),
        "l_shipdate": shipdate.astype(np.int64),
        "l_commitdate": (shipdate + r.integers(-30, 31, n)).astype(np.int64),
        "l_receiptdate": (shipdate + r.integers(1, 31, n)).astype(np.int64),
        "l_shipmode": _pick(r, SHIPMODES, n, z),
    }

    tables = {
        "region": region,
        "nation": nation,
        "supplier": supplier,
        "customer": customer,
        "part": part,
        "partsupp": partsupp,
        "orders": orders,
        "lineitem": lineitem,
    }
    hashed = {}
    return {
        name: PooledTable(columns, hashed) for name, columns in tables.items()
    }


def load_tpch_database(system, scale=1.0, zipf=0.0, seed=1992, name=None):
    """Generate TPC-H and load it into a fresh :class:`Database`."""
    catalog = tpch_catalog()
    if name is None:
        name = "skth" if zipf > 0 else "unth"
    database = Database(catalog, system, name=name)
    for table, columns in generate_tpch(scale, zipf, seed).items():
        database.load_table(table, columns)
    database.collect_statistics()
    return database
