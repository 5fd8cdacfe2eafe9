"""Seeded inputs for the four spine workloads.

Everything here is a pure function of ``(workload, seed, scale)``: the
system under test sees only what these generators produce — wire frames
for the served workloads, rule texts and op tuples for the embedded ones.
Nothing in this module imports :mod:`repro`, so the determinism test can
hash the streams without touching the program.

Sizes at ``scale = 1`` are the ones ISSUE 11 fixed; ``scale`` shrinks
every op count by one common factor (rule counts and catalog sizes are
part of the workload's *shape* and never scale).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

WORKLOADS = ("serve_depth1", "serve_pipelined", "rules_dense", "history_deep")
SERVED = ("serve_depth1", "serve_pipelined")

#: One-line reason each workload exists (mirrored in BENCHMARK.json).
WHY = {
    "serve_depth1": (
        "8 tenants, one outstanding op each, fsync on: every txn pays its "
        "own drain and fsync, so serve + wal per-drain overhead dominates"
    ),
    "serve_pipelined": (
        "same server and mix at window 32: group commit amortises fsync, "
        "so per-txn CPU (framing, compile, commit, task churn) decides"
    ),
    "rules_dense": (
        "embedded, no WAL: 62 paper-shaped rules over 10 symbols, so "
        "SharedPlan.step, constraint algebra and query atoms dominate"
    ),
    "history_deep": (
        "embedded, WAL + tiered history under a 400 kB budget with "
        "as_of reads, checkpoints and a crash: spill, tiers, recovery"
    ),
}

SERVE_TENANTS = 8
SERVE_CONNECTIONS = 2
SERVE_READ_EVERY = 5  # 80 % txn / 20 % query
SERVE_QUERY = "RETRIEVE (S.price) FROM STOCK S WHERE S.name = 'IBM'"
#: Full-row read the oracle issues once per tenant after the timed phase.
SERVE_FINAL_QUERY = (
    "RETRIEVE (S.name, S.price, S.company, S.category) FROM STOCK S"
)

DENSE_SYMBOLS = tuple(f"S{i}" for i in range(10))
DENSE_TRIGGERS = 60
#: ISSUE 11 said 1 500; 2 200 keeps more than 1 000 timed transactions per
#: repeat (and 10 samples beyond p99) at the default scale of 0.5.
DENSE_OPS = 2200
DENSE_LOGIN_EVERY = 40
DENSE_READ_EVERY = 10
#: A read is a portfolio snapshot: this point query once per symbol.
DENSE_READ_QUERY = "RETRIEVE (S.price) FROM STOCK S WHERE S.name = $name"
#: States whose firings the naive/offline oracle re-derives.
DENSE_ORACLE_STATES = 150

DEEP_ORDERS = 400
DEEP_CUSTOMERS = 50
DEEP_BUDGET_BYTES = 400_000
DEEP_HOT_WINDOW = 512
DEEP_READ_EVERY = 10
DEEP_ORDER_EVERY = 5
DEEP_GO_EVERY = 50
DEEP_CHECKPOINT_EVERY = 1500
#: ``rise`` fires at fixed positions (op 42 of every 100), whatever the
#: seed: ``follow`` enumerates its execution records, so their number
#: sets the cost of a step and must be comparable across seeds.
DEEP_RISE_EVERY = 100
DEEP_RISE_AT = 42
DEEP_READ_QUERY = (
    "RETRIEVE (O.oid, C.region) FROM ORDERS O, CUSTOMERS C "
    "WHERE O.cust = C.cust AND O.amount > $floor"
)
DEEP_REGIONS = ("east", "west", "north", "south")


def scaled(n: int, scale: float) -> int:
    return max(1, int(n * scale))


def _rng(seed: int, *salt) -> random.Random:
    # str seeds hash through sha512 in CPython: stable across processes.
    return random.Random(":".join(map(str, (seed,) + salt)))


def _dumps(payload) -> str:
    return json.dumps(payload, separators=(",", ":"), sort_keys=True)


# ---------------------------------------------------------------------------
# Served workloads
# ---------------------------------------------------------------------------


@dataclass
class TenantStream:
    tenant: str
    #: ``("txn", price)`` or ``("query", None)``, in send order; op ``k``
    #: of tenant ``i`` travels as frame id ``frame_id(i, k)``.
    ops: list
    #: The NDJSON request lines, one per op.
    frames: list


@dataclass
class ServedInputs:
    window: int
    tenants: list  # [TenantStream]
    #: tenant indices multiplexed on each connection
    connections: list

    @property
    def total_ops(self) -> int:
        return sum(len(t.ops) for t in self.tenants)

    @property
    def total_txns(self) -> int:
        return sum(op[0] == "txn" for t in self.tenants for op in t.ops)


def tenant_ops(seed: int, tenant_index: int, n: int) -> list:
    """E19's price stream (1/16 negative -> IC veto, 1/8 x2.2 jump ->
    SHARP-INCREASE, else a drift) with a point read every fifth op
    (tenants are staggered so that reads do not arrive in lockstep)."""
    rng = _rng(seed, "serve", tenant_index)
    ops, price = [], 50.0
    for k in range(n):
        if (k + tenant_index) % SERVE_READ_EVERY == SERVE_READ_EVERY - 1:
            ops.append(("query", None))
            continue
        roll = rng.random()
        if roll < 1 / 16:
            ops.append(("txn", -abs(price)))
            continue
        if roll < 3 / 16:
            price = round(price * 2.2, 2)
        else:
            price = round(max(5.0, price * rng.uniform(0.8, 1.2)), 2)
        if price > 1e7:
            price = 50.0
        ops.append(("txn", price))
    return ops


def update_stmt(price: float) -> list:
    return [["update", "STOCK", {"name": "IBM"}, {"price": price}]]


#: Frame ids are unique per connection (a query reply carries no tenant).
FRAME_ID_STRIDE = 1_000_000


def frame_id(tenant_index: int, k: int) -> int:
    return tenant_index * FRAME_ID_STRIDE + k


def serve_frame(tenant: str, frame_id: int, op) -> bytes:
    kind, price = op
    if kind == "txn":
        payload = {
            "op": "txn", "tenant": tenant, "id": frame_id,
            "stmts": update_stmt(price),
        }
    else:
        payload = {
            "op": "query", "tenant": tenant, "id": frame_id,
            "text": SERVE_QUERY,
        }
    return (_dumps(payload) + "\n").encode()


def served_inputs(workload: str, seed: int, scale: float) -> ServedInputs:
    per_tenant, window = {
        "serve_depth1": (1000, 1),
        "serve_pipelined": (1500, 32),
    }[workload]
    n = max(scaled(per_tenant * SERVE_TENANTS, scale) // SERVE_TENANTS, 1)
    tenants = []
    for i in range(SERVE_TENANTS):
        name = f"tenant{i:02d}"
        ops = tenant_ops(seed, i, n)
        frames = [
            serve_frame(name, frame_id(i, k), op) for k, op in enumerate(ops)
        ]
        tenants.append(TenantStream(name, ops, frames))
    connections = [
        list(range(c, SERVE_TENANTS, SERVE_CONNECTIONS))
        for c in range(SERVE_CONNECTIONS)
    ]
    return ServedInputs(window, tenants, connections)


# ---------------------------------------------------------------------------
# rules_dense
# ---------------------------------------------------------------------------

#: The paper's condition shapes, instantiated per symbol.  ``{s}`` is the
#: symbol, ``{k}`` a window, ``{th}`` a price threshold.  Every temporal
#: operator is time-bounded except the variable-free login interval, so
#: the evaluator state must stay flat (Section 5).
DENSE_SHAPES = (
    ("prev", "previously[{k}] (price({s}) > {th})"),
    ("thru", "throughout_past[{k}] (price({s}) < {th})"),
    ("edge", "price({s}) > {th} & lasttime (price({s}) <= {th})"),
    (
        "sharp",
        "[t := time] [x := price({s})] "
        "previously (price({s}) <= 0.5 * x & time >= t - {k})",
    ),
    (
        "avg",
        "[u := time] avg(price({s}); time <= u - 8; @update_stocks) > {th}",
    ),
    (
        "login",
        "price({s}) > {th} & "
        "(!@user_logout('X') since @user_login('X'))",
    ),
)

DENSE_FREE_RULE = (
    "any_doubled",
    "[t := time] [x := price($s)] "
    "previously (price($s) <= 0.5 * x & time >= t - 10)",
)
DENSE_DOMAIN_QUERY = "RETRIEVE (S.name) FROM STOCK S"
DENSE_IC = ("positive_price", "price(S0) >= 0")


@dataclass
class DenseInputs:
    #: ``(name, condition text)`` for the drawn triggers, in registration
    #: order; the free-variable rule and the IC are fixed (see above).
    triggers: list
    #: ``("tick", symbol, price)``, ``("event", name, user)`` or
    #: ``("read",)``.
    ops: list

    @property
    def total_ops(self) -> int:
        return len(self.ops)

    @property
    def total_txns(self) -> int:
        return sum(op[0] != "read" for op in self.ops)


DENSE_WINDOWS = (4, 6, 8, 10, 12)
DENSE_THRESHOLDS = (35, 45, 55, 65, 75)


def dense_triggers(seed: int) -> list:
    """60 triggers drawn 1-2 at a time, six per symbol: three consecutive
    shapes of the cycle above, the first two each with a twin that shares
    the temporal subformula under one more conjunct (what the SharedPlan
    dedups), and a second, differently parameterised instance of the
    third.

    The seed chooses which symbol plays which part and the registration
    order.  It chooses neither the shape mix nor the windows and
    thresholds that go with each part: the driver compares runs of
    different seeds, so the cost of a step, the retained state and the
    firings per state — and with them every timing, ``peak_rss_mb`` and
    ``evaluator_state_size`` — must be comparable across seeds."""
    rng = _rng(seed, "dense-rules")
    symbols = list(DENSE_SYMBOLS)
    rng.shuffle(symbols)
    draws = []
    for i, symbol in enumerate(symbols):
        for j in range(3):
            shape, template = DENSE_SHAPES[(i + j) % len(DENSE_SHAPES)]

            def instance(n):
                return template.format(
                    s=symbol,
                    k=DENSE_WINDOWS[(i + j + n) % len(DENSE_WINDOWS)],
                    th=DENSE_THRESHOLDS[(i + 2 * j + n) % len(DENSE_THRESHOLDS)],
                )

            draws.append((shape, instance(0), j < 2))
            if j == 2:
                draws.append((shape, instance(1), False))
    rng.shuffle(draws)
    triggers = []
    for shape, text, twin in draws:
        triggers.append((f"r{len(triggers):02d}_{shape}", text))
        if twin:
            triggers.append(
                (f"r{len(triggers):02d}_{shape}_twin",
                 f"({text}) & @update_stocks")
            )
    return triggers


def dense_inputs(seed: int, scale: float) -> DenseInputs:
    rng = _rng(seed, "dense-ops")
    n = scaled(DENSE_OPS, scale)
    prices = {s: 50.0 for s in DENSE_SYMBOLS}
    ops, logged_in = [], False
    for i in range(n):
        if i % DENSE_LOGIN_EVERY == DENSE_LOGIN_EVERY - 1:
            name = "user_logout" if logged_in else "user_login"
            logged_in = not logged_in
            ops.append(("event", name, "X"))
        elif i % DENSE_READ_EVERY == DENSE_READ_EVERY - 1:
            ops.append(("read",))
        else:
            sym = rng.choice(DENSE_SYMBOLS)
            roll = rng.random()
            if sym == "S0" and roll < 1 / 8:
                ops.append(("tick", sym, -abs(prices[sym])))
                continue
            if roll < 1 / 8:
                price = round(prices[sym] * 2.2, 2)
            else:
                price = round(prices[sym] * rng.uniform(0.8, 1.2), 2)
            prices[sym] = min(max(price, 5.0), 150.0)
            ops.append(("tick", sym, prices[sym]))
    return DenseInputs(dense_triggers(seed), ops)


# ---------------------------------------------------------------------------
# history_deep
# ---------------------------------------------------------------------------

#: ``follow`` enumerates every execution record of ``rise``; the rule
#: manager's default keeps them all, so ``rise`` is a rare edge (1 % of
#: the ops, see ``DEEP_RISE_EVERY``): a common one makes the constraint
#: solver, not the history tiers, the workload (15 ms per state after 360
#: states).
DEEP_RULES = (
    # (name, condition, options understood by sut_embedded)
    ("spike", "price > 96 since @go", {"coupling": "T-C-A"}),
    ("rise", "price > 99 & lasttime (price <= 99)", {}),
    ("follow", "executed(rise, t) & time <= t + 4", {"params": ["t"]}),
)
DEEP_IC = ("price_cap", "price <= 100")


@dataclass
class DeepInputs:
    orders: list  # [(oid, cust, amount)]
    customers: list  # [(cust, region)]
    #: ``("txn", price, go, order_update | None)`` or
    #: ``("read", fraction_of_now, floor)``.
    ops: list
    checkpoint_every: int

    @property
    def total_ops(self) -> int:
        return len(self.ops)

    @property
    def total_txns(self) -> int:
        return sum(op[0] == "txn" for op in self.ops)


def deep_inputs(seed: int, scale: float) -> DeepInputs:
    rng = _rng(seed, "deep")
    orders = [
        (i, rng.randrange(DEEP_CUSTOMERS), float(rng.randrange(100)))
        for i in range(DEEP_ORDERS)
    ]
    customers = [
        (i, rng.choice(DEEP_REGIONS)) for i in range(DEEP_CUSTOMERS)
    ]
    n = scaled(4000, scale)
    # A read targets a point of the past, most of them in spilled
    # segments.  The points cover [0, 1) evenly and are visited in one
    # fixed scrambled order, whatever the seed: which segments fault, and
    # so what a read costs, must be comparable across seeds.
    reads = n // DEEP_READ_EVERY
    points = [(j + 0.5) / max(1, reads) for j in range(reads)]
    random.Random("deep-read-order").shuffle(points)
    ops = []
    for i in range(n):
        if i % DEEP_READ_EVERY == DEEP_READ_EVERY - 1:
            ops.append(("read", points.pop(), float(rng.randrange(100))))
            continue
        if i % DEEP_RISE_EVERY == DEEP_RISE_AT:
            price = 100  # the only price above 99: ``rise`` fires
        else:
            price = 150 if rng.random() < 1 / 64 else rng.randrange(100)
        order = None
        if i % DEEP_ORDER_EVERY == 0:
            order = (rng.randrange(DEEP_ORDERS), float(rng.randrange(100)))
        ops.append(("txn", price, i % DEEP_GO_EVERY == 0, order))
    # Two checkpoints and a WAL tail to replay at every scale.
    checkpoint_every = max(1, int(n * DEEP_CHECKPOINT_EVERY / 4000))
    return DeepInputs(orders, customers, ops, checkpoint_every)


# ---------------------------------------------------------------------------


def inputs_for(workload: str, seed: int, scale: float):
    if workload in SERVED:
        return served_inputs(workload, seed, scale)
    if workload == "rules_dense":
        return dense_inputs(seed, scale)
    if workload == "history_deep":
        return deep_inputs(seed, scale)
    raise ValueError(f"unknown workload {workload!r}")


def stream_bytes(workload: str, seed: int, scale: float) -> bytes:
    """The canonical byte image of a workload's inputs (op stream and rule
    texts) — what the determinism test hashes."""
    inputs = inputs_for(workload, seed, scale)
    if workload in SERVED:
        return b"".join(f for t in inputs.tenants for f in t.frames)
    if workload == "rules_dense":
        return _dumps(
            [inputs.triggers, DENSE_FREE_RULE, DENSE_IC, inputs.ops]
        ).encode()
    return _dumps(
        [inputs.orders, inputs.customers, DEEP_RULES, DEEP_IC, inputs.ops]
    ).encode()
