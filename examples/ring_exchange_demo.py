"""Anatomy of an n-way exchange: watch a 3-ring form, run, and break.

Hand-builds the smallest interesting network — three sharers whose
wants form a cycle (A wants what C has, C wants what B has, B wants
what A has) plus one free-rider competing for the same slots — and
narrates the exchange machinery step by step: request registration,
request-tree propagation, ring discovery via the composite tree, the
token pass, preemption of the free-rider's transfer, and the ring
breaking when the first member completes.

Run with:  python examples/ring_exchange_demo.py
"""

from __future__ import annotations

from repro import SimulationConfig, TrafficClass
from repro.content.catalog import Catalog, Category, ContentObject
from repro.content.interests import InterestProfile
from repro.content.storage import ObjectStore
from repro.context import SimContext
from repro.core.disciplines import make_discipline
from repro.core.policies import parse_mechanism
from repro.metrics.columnar import ColumnarCollector
from repro.network.behaviors import FREELOADER, SHARER
from repro.network.lookup import LookupService
from repro.network.peer import Peer

OBJECT_SIZE_KBIT = 4096.0  # 0.5 MB -> 4 blocks of 1024 kbit


def build_catalog() -> Catalog:
    objects = tuple(
        ContentObject(object_id=i, category_id=0, rank=i + 1, size_kbit=OBJECT_SIZE_KBIT)
        for i in range(4)
    )
    return Catalog([Category(category_id=0, rank=1, objects=objects)])


def build_peer(ctx: SimContext, peer_id: int, shares: bool = True) -> Peer:
    config = ctx.config
    behavior = SHARER if shares else FREELOADER
    peer = Peer(
        ctx,
        peer_id,
        behavior,
        parse_mechanism("2-5-way"),
        InterestProfile([0], [1.0]),
        ObjectStore(capacity=8),
        upload_capacity_kbit=config.upload_capacity_kbit,
        download_capacity_kbit=config.download_capacity_kbit,
        discipline=make_discipline(
            config.scheduler_mode,
            peer_id,
            shares=shares,
            fake_participation=config.freeloaders_fake_participation,
        ),
        class_name=behavior.name,
    )
    ctx.peers[peer_id] = peer
    return peer


def give(ctx: SimContext, peer: Peer, object_id: int) -> None:
    peer.store.add(object_id)
    if peer.behavior.shares:
        ctx.lookup.register(peer.peer_id, object_id)


def main() -> None:
    config = SimulationConfig(
        num_peers=4,
        num_categories=1,
        objects_per_category_max=4,
        object_size_mb=0.5,
        block_size_kbit=1024.0,
        upload_capacity_kbit=10.0,  # ONE upload slot each: priority is visible
        storage_min_objects=8,
        storage_max_objects=8,
        exchange_mechanism="2-5-way",
        duration=10_000.0,
        warmup=0.0,
    )
    # A record-keeping collector: the walkthrough reads session records.
    ctx = SimContext(config, metrics=ColumnarCollector(keep_records=True))
    ctx.catalog = build_catalog()
    ctx.lookup = LookupService()

    alice = build_peer(ctx, 0)
    bob = build_peer(ctx, 1)
    carol = build_peer(ctx, 2)
    frank = build_peer(ctx, 3, shares=False)  # the free-rider

    give(ctx, alice, 0)  # Alice has object 0
    give(ctx, bob, 1)  # Bob has object 1
    give(ctx, carol, 2)  # Carol has object 2

    print("Step 1 — the free-rider asks first and takes Alice's only slot.")
    frank.start_download(ctx.catalog.object(0))
    ctx.engine.run(until=1.0)
    frank_dl = frank.pending[0]
    print(f"  Frank is served by {frank_dl.active_sources} normal transfer(s).")

    print("\nStep 2 — requests that form a cycle, registered one by one.")
    print("  Carol requests object 1 from Bob   (edge Carol->Bob)")
    carol.start_download(ctx.catalog.object(1))
    ctx.engine.run(until=2.0)
    print("  Bob requests object 0 from Alice   (edge Bob->Alice), carrying")
    print("  Bob's request tree, in which Carol already appears.")
    bob.start_download(ctx.catalog.object(0))
    ctx.engine.run(until=3.0)

    print("\nStep 3 — Alice wants object 2 (held by Carol): before sending the")
    print("  request she inspects her composite request tree, finds Carol at")
    print("  depth 3, and closes the 3-ring Alice->Carol->Bob->Alice.")
    alice.start_download(ctx.catalog.object(2))
    ctx.engine.run(until=4.0)

    rings_formed = ctx.metrics.counters.get("ring.formed.size3", 0)
    print(f"  rings formed: {rings_formed}")
    for peer, wanted in ((alice, 2), (bob, 0), (carol, 1)):
        download = peer.pending[wanted]
        transfer = next(iter(download.transfers.values()))
        print(
            f"  peer {peer.peer_id} receives object {wanted} via "
            f"{transfer.traffic_class.value} transfer from peer "
            f"{transfer.provider.peer_id}"
        )

    print("\nStep 4 — the exchange preempted the free-rider's transfer:")
    preempted = [
        s for s in ctx.metrics.sessions if s.reason.value == "preempted"
    ]
    print(f"  preempted sessions: {len(preempted)} "
          f"(requester: peer {preempted[0].requester_id})")
    print(f"  Frank's request is back in Alice's queue: "
          f"{(3, 0) in alice.irq}")

    print("\nStep 5 — run to completion; the ring breaks when the first member")
    print("  finishes, and the free-rider finally gets the spare slot back.")
    ctx.engine.run(until=10_000.0)
    exchange_sessions = [
        s
        for s in ctx.metrics.sessions
        if s.traffic_class is not TrafficClass.NON_EXCHANGE
    ]
    print(f"  exchange sessions recorded: {len(exchange_sessions)}")
    print(f"  Alice now stores object 2: {2 in alice.store}")
    print(f"  Bob now stores object 0:   {0 in bob.store}")
    print(f"  Carol now stores object 1: {1 in carol.store}")
    print(f"  Frank got object 0 too:    {0 in frank.store} "
          f"(served at low priority)")


if __name__ == "__main__":
    main()
