#!/usr/bin/env python3
"""Live streaming across protocols: PAG vs AcTinG vs plain gossip.

The paper's motivating scenario (section VII): a source streams video to
a membership; we compare what each node pays in bandwidth and what
stream quality it experiences, across the accountable+private protocol
(PAG), the accountable-only baseline (AcTinG), and unprotected push
gossip.  RAC is evaluated analytically (it cannot stream at all — see
Table II and benchmarks/bench_table2_video_quality.py).

Run:
    python examples/live_streaming.py [n_nodes] [rate_kbps]
"""

import sys

from repro.baselines.acting import ActingSession
from repro.baselines.rac import rac_max_payload_kbps
from repro.core import PagConfig, PagSession
from repro.gossip.dissemination import PlainGossipNode, PlainSourceNode
from repro.gossip.source import StreamSchedule
from repro.membership.directory import Directory
from repro.membership.views import ViewProvider
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.rng import SeedSequence
from repro.streaming.player import evaluate_playback

ROUNDS = 15
WARMUP = 4


def run_pag(n: int, rate: float):
    config = PagConfig.for_system_size(n, stream_rate_kbps=rate)
    session = PagSession.create(n, config=config)
    session.run(ROUNDS)
    return (
        session.mean_bandwidth_kbps(WARMUP, direction="down"),
        session.mean_continuity(),
    )


def run_acting(n: int, rate: float):
    from repro.baselines.acting import ActingConfig

    session = ActingSession.create(
        n, config=ActingConfig(stream_rate_kbps=rate)
    )
    session.run(ROUNDS)
    continuities = []
    for node in session.nodes.values():
        report = evaluate_playback(
            session.source.released,
            node.store,
            current_round=ROUNDS,
            warmup_rounds=5,
        )
        continuities.append(report.continuity)
    return (
        session.mean_bandwidth_kbps(WARMUP, direction="down"),
        sum(continuities) / len(continuities),
    )


def run_plain(n: int, rate: float):
    directory = Directory.of_size(n)
    views = ViewProvider(
        directory=directory,
        seeds=SeedSequence(7),
        fanout=3,
        monitors_per_node=3,
    )
    network = Network()
    sim = Simulator(network=network)
    source = PlainSourceNode(
        0, network, views, StreamSchedule(rate_kbps=rate)
    )
    sim.add_node(source)
    nodes = {}
    for node_id in directory.consumers():
        nodes[node_id] = PlainGossipNode(node_id, network, views)
        sim.add_node(nodes[node_id])
    sim.run(ROUNDS)
    per_node = network.meter.all_node_kbps(
        sorted(nodes), first_round=WARMUP, direction="down"
    )
    bw = sum(per_node.values()) / len(per_node)
    continuities = []
    for node in nodes.values():
        report = evaluate_playback(
            source.released, node.store, current_round=ROUNDS,
            warmup_rounds=5,
        )
        continuities.append(report.continuity)
    return bw, sum(continuities) / len(continuities)


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 30
    rate = float(sys.argv[2]) if len(sys.argv) > 2 else 300.0

    print(f"Streaming {rate:.0f} Kbps to {n} nodes, {ROUNDS} rounds\n")
    print(f"{'protocol':<14} {'privacy':<9} {'accountable':<12} "
          f"{'down Kbps':>10} {'continuity':>11}")
    print("-" * 60)

    rows = [
        ("plain gossip", "no", "no", run_plain(n, rate)),
        ("AcTinG", "no", "yes", run_acting(n, rate)),
        ("PAG", "partial", "yes", run_pag(n, rate)),
    ]
    for name, priv, acct, (bw, cont) in rows:
        print(
            f"{name:<14} {priv:<9} {acct:<12} {bw:>10.0f} {cont:>10.1%}"
        )

    rac_nodes = max(n, 1000)
    rac_capacity = rac_max_payload_kbps(10_000_000, rac_nodes)
    print(
        f"{'RAC':<14} {'yes':<9} {'yes':<12} "
        f"{'(analytic)':>10} {'unusable':>11}"
    )
    print(
        f"\nRAC could carry at most {rac_capacity:.0f} Kbps of payload on "
        f"a 10 Gbps link at the paper's {rac_nodes}-node scale — far "
        f"below the {rate:.0f} Kbps stream (Table II's empty cells)."
    )
    print(
        "\nPAG buys privacy over AcTinG for a bandwidth premium, while "
        "remaining streamable — the paper's headline trade-off."
    )


if __name__ == "__main__":
    main()
