"""Parameterised benchmark-circuit generators.

The paper evaluates on ISCAS-85/89 circuits and an OpenCores MIPS processor,
distributed as gate-level netlists we cannot redistribute.  These generators
build *structural analogues*: circuits assembled from the same kinds of
blocks (ALUs, array multipliers, address decoders, comparators, scan-converted
control FSMs) whose signal-probability profiles contain a comparable
population of rare nets, so the whole DETERRENT pipeline — rare-net
extraction, compatibility analysis, RL training, SAT pattern generation, and
Trojan coverage evaluation — runs on realistic structures at laptop scale.

Every generator is deterministic for a given seed and returns a validated
:class:`~repro.circuits.netlist.Netlist`.
"""

from __future__ import annotations

from repro.circuits import blocks
from repro.circuits.builder import NetlistBuilder
from repro.circuits.gates import GateType
from repro.circuits.netlist import Netlist
from repro.circuits.validate import validate_netlist
from repro.utils.rng import RngLike, make_rng


def _validated(netlist: Netlist) -> Netlist:
    report = validate_netlist(netlist)
    if not report.ok:
        raise ValueError(f"generated netlist {netlist.name!r} invalid: {report.errors[:3]}")
    return netlist


def c17() -> Netlist:
    """The real ISCAS-85 c17 circuit (6 NAND gates), used widely in unit tests."""
    netlist = Netlist("c17")
    for net in ("1", "2", "3", "6", "7"):
        netlist.add_input(net)
    netlist.add_gate("10", GateType.NAND, ("1", "3"))
    netlist.add_gate("11", GateType.NAND, ("3", "6"))
    netlist.add_gate("16", GateType.NAND, ("2", "11"))
    netlist.add_gate("19", GateType.NAND, ("11", "7"))
    netlist.add_gate("22", GateType.NAND, ("10", "16"))
    netlist.add_gate("23", GateType.NAND, ("16", "19"))
    netlist.add_output("22")
    netlist.add_output("23")
    return _validated(netlist)


def alu_control_circuit(
    name: str,
    data_width: int = 8,
    decoder_bits: int = 5,
    num_comparators: int = 3,
    seed: RngLike = 0,
) -> Netlist:
    """ALU + address decoder + comparator bank (c2670/c5315-style control logic).

    The decoder outputs and the wide equality comparators are the main rare
    nets: each is an AND over ``decoder_bits`` or ``data_width`` literals and
    therefore takes value 1 with probability ``2**-bits`` under random inputs.
    """
    rng = make_rng(seed)
    builder = NetlistBuilder(name)
    a = builder.inputs("a", data_width)
    b = builder.inputs("b", data_width)
    opcode = builder.inputs("op", 2)
    address = builder.inputs("addr", decoder_bits)

    alu_out = blocks.alu(builder, a, b, opcode)
    builder.outputs(alu_out, prefix="alu")

    select_lines = blocks.decoder(builder, address)
    # Gate the ALU result with a subset of the decoder outputs so rare nets
    # propagate toward primary outputs (observable rare logic).
    chosen = rng.choice(len(select_lines), size=min(8, len(select_lines)), replace=False)
    gated = [
        builder.and_(select_lines[int(index)], alu_out[int(index) % len(alu_out)])
        for index in chosen
    ]
    builder.outputs(gated, prefix="gated")

    for comparator_index in range(num_comparators):
        pattern_bits = [
            a[i] if rng.integers(2) else builder.not_(a[i]) for i in range(data_width)
        ]
        match = builder.and_(*pattern_bits, name=f"match_{comparator_index}")
        builder.output(match)

    greater = blocks.magnitude_comparator(builder, a, b)
    equal = blocks.equality_comparator(builder, a, b)
    builder.output(greater, name="a_gt_b")
    builder.output(equal, name="a_eq_b")
    parity = blocks.parity_tree(builder, a + b)
    builder.output(parity, name="parity")
    return _validated(builder.build())


def multiplier_circuit(name: str, width: int = 6) -> Netlist:
    """Unsigned array multiplier (c6288 analogue).

    c6288 is a 16x16 array multiplier; the default 6x6 analogue keeps the same
    carry-save structure (whose high-order product and carry bits are strongly
    biased) at a size the pure-Python SAT and RL stack handles quickly.
    """
    builder = NetlistBuilder(name)
    a = builder.inputs("a", width)
    b = builder.inputs("b", width)
    product = blocks.array_multiplier(builder, a, b)
    builder.outputs(product, prefix="p")
    # Overflow-style flags: AND of the top product bits (rare under random inputs).
    top = product[-4:]
    builder.output(builder.and_(*top), name="all_top_set")
    builder.output(builder.nor(*top), name="all_top_clear")
    return _validated(builder.build())


def parity_decoder_circuit(
    name: str,
    data_width: int = 12,
    decoder_bits: int = 6,
    num_match_terms: int = 6,
    seed: RngLike = 1,
) -> Netlist:
    """Wide parity/ECC-style logic with address decoding (c7552 analogue)."""
    rng = make_rng(seed)
    builder = NetlistBuilder(name)
    data = builder.inputs("d", data_width)
    mask = builder.inputs("m", data_width)
    address = builder.inputs("addr", decoder_bits)

    masked = [builder.and_(d, m) for d, m in zip(data, mask)]
    builder.output(blocks.parity_tree(builder, masked), name="parity")

    select_lines = blocks.decoder(builder, address)
    sample = rng.choice(len(select_lines), size=min(12, len(select_lines)), replace=False)
    for rank, index in enumerate(sample):
        gated = builder.and_(select_lines[int(index)], masked[rank % data_width])
        builder.output(gated, name=f"sel_{rank}")

    for term_index in range(num_match_terms):
        literal_count = int(rng.integers(max(4, data_width // 2), data_width + 1))
        chosen_bits = rng.choice(data_width, size=literal_count, replace=False)
        literals = [
            data[int(i)] if rng.integers(2) else builder.not_(data[int(i)])
            for i in chosen_bits
        ]
        builder.output(builder.and_(*literals), name=f"term_{term_index}")

    total, carry = blocks.ripple_carry_adder(builder, data[: data_width // 2], mask[: data_width // 2])
    builder.outputs(total, prefix="sum")
    builder.output(carry, name="carry")
    return _validated(builder.build())


def sequential_controller(
    name: str,
    state_bits: int = 6,
    data_width: int = 8,
    num_counters: int = 2,
    seed: RngLike = 2,
) -> Netlist:
    """Scan-style sequential controller (s13207/s15850/s35932 analogue).

    A bank of flip-flops implements a state register and counters; the next-
    state logic contains one-hot state decoders and terminal-count detectors,
    which become rare nets once the circuit is viewed through full scan.
    """
    rng = make_rng(seed)
    builder = NetlistBuilder(name)
    data = builder.inputs("din", data_width)
    control = builder.inputs("ctl", 3)

    # State register: the Q nets are the current state, the D nets carry the
    # next-state logic built below.  Seeding the register from the control
    # inputs keeps every net driven while the feedback path is constructed.
    seed_bits = [builder.buf(control[i % len(control)]) for i in range(state_bits)]
    current_state = [
        builder.flip_flop(seed_bits[i], q=f"state_q{i}") for i in range(state_bits)
    ]

    one_hot = blocks.decoder(builder, current_state[: min(state_bits, 5)])
    sample = rng.choice(len(one_hot), size=min(10, len(one_hot)), replace=False)
    for rank, index in enumerate(sample):
        builder.output(builder.and_(one_hot[int(index)], data[rank % data_width]),
                       name=f"state_act_{rank}")

    # Next-state logic: XOR mix of state and data, registered.
    for i in range(state_bits):
        next_bit = builder.xor(current_state[i], data[i % data_width])
        gated = builder.mux2(control[0], current_state[i], next_bit)
        builder.flip_flop(gated, q=f"state_next_q{i}")
        builder.output(gated, name=f"ns_{i}")

    # Counters with terminal-count / all-zero detection (rare strobes).
    for counter_index in range(num_counters):
        counter_q = [
            builder.flip_flop(data[(counter_index + i) % data_width], q=f"cnt{counter_index}_q{i}")
            for i in range(data_width)
        ]
        incremented, _carry = blocks.ripple_carry_adder(builder, counter_q, counter_q)
        for bit_index, bit in enumerate(incremented):
            builder.flip_flop(bit, q=f"cnt{counter_index}_next_q{bit_index}")
        builder.output(builder.and_(*counter_q, name=f"tc_{counter_index}"))
        builder.output(builder.nor(*counter_q, name=f"zero_{counter_index}"))

    reversed_data = list(reversed(data))
    builder.output(
        blocks.equality_comparator(builder, data, reversed_data), name="palindrome"
    )
    greater = blocks.magnitude_comparator(builder, data[: data_width // 2], data[data_width // 2:])
    builder.output(greater, name="hi_gt_lo")
    return _validated(builder.build())


def mips16_circuit(
    name: str = "mips16_like",
    data_width: int = 8,
    num_registers: int = 4,
    seed: RngLike = 3,
) -> Netlist:
    """Gate-level single-cycle MIPS-style datapath slice (MIPS analogue).

    Contains an opcode decoder, register-address decoders, an ALU, a result
    write-back mux tree and branch-condition comparators.  The opcode and
    register decoders give the large population of rare nets that makes the
    real MIPS benchmark challenging (1005 rare nets in the paper).
    """
    rng = make_rng(seed)
    builder = NetlistBuilder(name)
    opcode = builder.inputs("opcode", 4)
    rs_addr = builder.inputs("rs", 2 if num_registers <= 4 else 3)
    rt_addr = builder.inputs("rt", 2 if num_registers <= 4 else 3)
    immediate = builder.inputs("imm", data_width)
    reg_data = [builder.inputs(f"r{i}", data_width) for i in range(num_registers)]

    opcode_lines = blocks.decoder(builder, opcode)
    rs_lines = blocks.decoder(builder, rs_addr)[:num_registers]
    rt_lines = blocks.decoder(builder, rt_addr)[:num_registers]

    # Register-file read ports as AND-OR mux trees driven by one-hot decoders.
    def read_port(select_lines: list[str]) -> list[str]:
        port = []
        for bit in range(data_width):
            terms = [
                builder.and_(select_lines[reg], reg_data[reg][bit])
                for reg in range(num_registers)
            ]
            port.append(builder.or_(*terms))
        return port

    rs_value = read_port(rs_lines)
    rt_value = read_port(rt_lines)

    use_immediate = builder.or_(opcode_lines[1], opcode_lines[5], opcode_lines[9])
    operand_b = blocks.mux_bus(builder, use_immediate, rt_value, immediate)
    alu_out = blocks.alu(builder, rs_value, operand_b, opcode[:2])
    builder.outputs(alu_out, prefix="alu")

    # Branch conditions and rare control strobes.
    builder.output(blocks.equality_comparator(builder, rs_value, rt_value), name="beq_taken")
    builder.output(blocks.magnitude_comparator(builder, rs_value, rt_value), name="bgt_taken")
    zero = builder.nor(*alu_out, name="alu_zero")
    builder.output(zero)
    overflow = builder.and_(*alu_out[-3:], name="alu_saturate")
    builder.output(overflow)
    for index in range(0, len(opcode_lines), 3):
        strobe = builder.and_(opcode_lines[index], zero if index % 2 else overflow)
        builder.output(strobe, name=f"ctl_strobe_{index}")

    # Write-back select logic gated by random opcode lines (biased control nets).
    sample = rng.choice(len(opcode_lines), size=6, replace=False)
    for rank, line in enumerate(sample):
        builder.output(
            builder.and_(opcode_lines[int(line)], alu_out[rank % data_width]),
            name=f"wb_{rank}",
        )
    return _validated(builder.build())


def random_logic_circuit(
    name: str,
    num_inputs: int = 16,
    num_gates: int = 300,
    num_outputs: int = 12,
    and_bias: float = 0.55,
    seed: RngLike = 4,
) -> Netlist:
    """Random levelised DAG with a controllable bias toward AND/NOR gates.

    Raising ``and_bias`` skews signal probabilities towards 0, producing more
    rare nets; the property-based tests and a few experiments use this
    generator to get circuits with tunable rare-net density.
    """
    if num_inputs < 2 or num_gates < 1:
        raise ValueError("random_logic_circuit needs at least 2 inputs and 1 gate")
    rng = make_rng(seed)
    builder = NetlistBuilder(name)
    nets = builder.inputs("x", num_inputs)
    biased = [GateType.AND, GateType.NOR]
    neutral = [GateType.OR, GateType.NAND, GateType.XOR, GateType.XNOR]
    for _ in range(num_gates):
        fanin = int(rng.integers(2, 5))
        sources = [nets[int(i)] for i in rng.choice(len(nets), size=fanin, replace=False)]
        if rng.random() < and_bias:
            gate_type = biased[int(rng.integers(len(biased)))]
        else:
            gate_type = neutral[int(rng.integers(len(neutral)))]
        nets.append(builder.gate(gate_type, sources))
    # Most recently created nets become outputs so deep (often rare) logic is observable.
    for index, net in enumerate(nets[-num_outputs:]):
        builder.output(net, name=f"y[{index}]")
    return _validated(builder.build())


__all__ = [
    "c17",
    "alu_control_circuit",
    "multiplier_circuit",
    "parity_decoder_circuit",
    "sequential_controller",
    "mips16_circuit",
    "random_logic_circuit",
]
