#!/usr/bin/env python
"""Run DETERRENT on your own circuit built with the NetlistBuilder API.

The script constructs a small bus controller from word-level blocks (an
address decoder, a command comparator, and an ALU), exports it to the ISCAS
``.bench`` format, and runs the DETERRENT pipeline on it — the workflow a user
would follow for a proprietary design.

Run with:  python examples/custom_circuit.py
"""

from pathlib import Path

from repro.circuits import blocks
from repro.circuits.bench_io import dumps_bench
from repro.circuits.builder import NetlistBuilder
from repro.core.config import DeterrentConfig
from repro.core.pipeline import DeterrentPipeline
from repro.rl.ppo import PpoConfig
from repro.trojan.evaluation import trigger_coverage
from repro.trojan.insertion import insert_trojan, sample_trojans


def build_bus_controller() -> "NetlistBuilder":
    """A toy bus controller: decoded addresses gate ALU results onto strobes."""
    builder = NetlistBuilder("bus_controller")
    address = builder.inputs("addr", 5)
    command = builder.inputs("cmd", 8)
    data_a = builder.inputs("da", 8)
    data_b = builder.inputs("db", 8)

    select_lines = blocks.decoder(builder, address)
    alu_out = blocks.alu(builder, data_a, data_b, command[:2])
    builder.outputs(alu_out, prefix="alu")

    # Command-match strobes: rare control events a Trojan would love to hide in.
    magic = [command[i] if i % 3 else builder.not_(command[i]) for i in range(8)]
    builder.output(builder.and_(*magic), name="magic_cmd")
    for index in (0, 7, 21, 30):
        builder.output(builder.and_(select_lines[index], alu_out[index % 8]),
                       name=f"strobe_{index}")
    builder.output(blocks.equality_comparator(builder, data_a, data_b), name="mirror")
    return builder


def main() -> None:
    netlist = build_bus_controller().build()
    print(f"Built {netlist.name}: {netlist.num_gates} gates, depth {netlist.depth}")

    out_dir = Path("results")
    out_dir.mkdir(exist_ok=True)
    (out_dir / "bus_controller.bench").write_text(dumps_bench(netlist))
    print(f"Exported netlist to {out_dir}/bus_controller.bench")

    config = DeterrentConfig(
        rareness_threshold=0.1,
        total_training_steps=3072,
        k_patterns=64,
        seed=0,
        ppo=PpoConfig(num_steps=64, minibatch_size=64, hidden_sizes=(64, 64)),
    )
    result = DeterrentPipeline(config).run(netlist)
    print(f"Rare nets: {len(result.rare_nets)}, patterns generated: {result.test_length}")

    trojans = sample_trojans(
        result.netlist, result.compatibility.rare_nets, num_trojans=30,
        trigger_width=4, seed=2, justifier=result.compatibility.justifier,
    )
    coverage = trigger_coverage(result.netlist, trojans, result.pattern_set)
    print(f"Coverage against {coverage.num_trojans} sampled Trojans: "
          f"{coverage.coverage_percent:.1f}%")

    # Show one concrete HT-infected netlist and the pattern that exposes it.
    if trojans and coverage.detected and coverage.detected[0]:
        trojan = trojans[0]
        infected = insert_trojan(result.netlist, trojan)
        print(f"Example Trojan {trojan.name}: trigger on {trojan.trigger.nets}, "
              f"payload flips {trojan.payload_output!r}; infected netlist has "
              f"{infected.num_gates} gates (golden: {result.netlist.num_gates})")


if __name__ == "__main__":
    main()
