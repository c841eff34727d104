"""Word-level combinational building blocks.

These functions compose primitive gates into the arithmetic and control
structures used by the benchmark generators: ripple-carry adders, array
multipliers, decoders, comparators, parity trees, ALUs and multiplexer trees.
They return lists of output net names and operate on an existing
:class:`~repro.circuits.builder.NetlistBuilder`.

The decoder and wide-comparator blocks are the main source of *rare nets*
(nets whose probability of taking one of the logic values under random inputs
is very small), which is the structural property the paper's benchmarks rely
on for Trojan trigger insertion.
"""

from __future__ import annotations

from repro.circuits.builder import NetlistBuilder


def half_adder(builder: NetlistBuilder, a: str, b: str) -> tuple[str, str]:
    """Half adder: returns (sum, carry)."""
    return builder.xor(a, b), builder.and_(a, b)


def full_adder(builder: NetlistBuilder, a: str, b: str, carry_in: str) -> tuple[str, str]:
    """Full adder: returns (sum, carry_out)."""
    partial = builder.xor(a, b)
    total = builder.xor(partial, carry_in)
    carry = builder.or_(builder.and_(a, b), builder.and_(partial, carry_in))
    return total, carry


def ripple_carry_adder(
    builder: NetlistBuilder, a: list[str], b: list[str], carry_in: str | None = None
) -> tuple[list[str], str]:
    """Ripple-carry adder over two equal-width buses: returns (sum bus, carry out)."""
    if len(a) != len(b):
        raise ValueError(f"operand widths differ: {len(a)} vs {len(b)}")
    sums: list[str] = []
    carry = carry_in
    for bit_a, bit_b in zip(a, b):
        if carry is None:
            bit_sum, carry = half_adder(builder, bit_a, bit_b)
        else:
            bit_sum, carry = full_adder(builder, bit_a, bit_b, carry)
        sums.append(bit_sum)
    return sums, carry


def array_multiplier(builder: NetlistBuilder, a: list[str], b: list[str]) -> list[str]:
    """Unsigned array multiplier (the structure of ISCAS-85 c6288).

    Returns the ``len(a) + len(b)``-bit product bus.  Built from partial
    products reduced with carry-save rows of full/half adders.
    """
    width_a, width_b = len(a), len(b)
    partials = [
        [builder.and_(a[i], b[j]) for i in range(width_a)] for j in range(width_b)
    ]
    # Row-by-row carry-save accumulation.
    accum = list(partials[0])
    product: list[str] = [accum.pop(0)]
    for row_index in range(1, width_b):
        row = partials[row_index]
        next_accum: list[str] = []
        carry: str | None = None
        for position in range(width_a):
            addend = accum[position] if position < len(accum) else None
            if addend is None:
                if carry is None:
                    next_accum.append(row[position])
                else:
                    bit_sum, carry = half_adder(builder, row[position], carry)
                    next_accum.append(bit_sum)
            else:
                if carry is None:
                    bit_sum, carry = half_adder(builder, row[position], addend)
                else:
                    bit_sum, carry = full_adder(builder, row[position], addend, carry)
                next_accum.append(bit_sum)
        if carry is not None:
            next_accum.append(carry)
        product.append(next_accum.pop(0))
        accum = next_accum
    product.extend(accum)
    return product


def decoder(builder: NetlistBuilder, select: list[str]) -> list[str]:
    """N-to-2^N one-hot decoder.

    Each output is an AND of all select bits in true/complement form; under
    random inputs each output is 1 with probability 2^-N, so wide decoders
    are a rich source of rare nets.
    """
    inverted = [builder.not_(bit) for bit in select]
    outputs: list[str] = []
    for code in range(2 ** len(select)):
        terms = [
            select[i] if (code >> i) & 1 else inverted[i] for i in range(len(select))
        ]
        outputs.append(builder.and_(*terms))
    return outputs


def equality_comparator(builder: NetlistBuilder, a: list[str], b: list[str]) -> str:
    """Wide equality comparator: output is 1 iff the buses are bit-wise equal."""
    if len(a) != len(b):
        raise ValueError(f"operand widths differ: {len(a)} vs {len(b)}")
    bit_equal = [builder.xnor(x, y) for x, y in zip(a, b)]
    return builder.and_(*bit_equal) if len(bit_equal) > 1 else bit_equal[0]


def magnitude_comparator(builder: NetlistBuilder, a: list[str], b: list[str]) -> str:
    """Greater-than comparator: output is 1 iff unsigned a > b."""
    if len(a) != len(b):
        raise ValueError(f"operand widths differ: {len(a)} vs {len(b)}")
    greater = None
    equal_so_far = None
    for bit_a, bit_b in zip(reversed(a), reversed(b)):
        bit_gt = builder.and_(bit_a, builder.not_(bit_b))
        bit_eq = builder.xnor(bit_a, bit_b)
        if greater is None:
            greater = bit_gt
            equal_so_far = bit_eq
        else:
            greater = builder.or_(greater, builder.and_(equal_so_far, bit_gt))
            equal_so_far = builder.and_(equal_so_far, bit_eq)
    assert greater is not None
    return greater


def parity_tree(builder: NetlistBuilder, bits: list[str]) -> str:
    """Balanced XOR parity tree over a bus."""
    layer = list(bits)
    while len(layer) > 1:
        next_layer: list[str] = []
        for index in range(0, len(layer) - 1, 2):
            next_layer.append(builder.xor(layer[index], layer[index + 1]))
        if len(layer) % 2 == 1:
            next_layer.append(layer[-1])
        layer = next_layer
    return layer[0]


def mux_bus(
    builder: NetlistBuilder, select: str, when_zero: list[str], when_one: list[str]
) -> list[str]:
    """Bit-wise 2:1 mux between two equal-width buses."""
    if len(when_zero) != len(when_one):
        raise ValueError("mux operand widths differ")
    return [builder.mux2(select, z, o) for z, o in zip(when_zero, when_one)]


def mux_tree(builder: NetlistBuilder, select: list[str], choices: list[list[str]]) -> list[str]:
    """Select one of ``2**len(select)`` buses with a binary select bus."""
    expected = 2 ** len(select)
    if len(choices) != expected:
        raise ValueError(f"expected {expected} choices, got {len(choices)}")
    layer = [list(bus) for bus in choices]
    for bit in select:
        next_layer = []
        for index in range(0, len(layer), 2):
            next_layer.append(mux_bus(builder, bit, layer[index], layer[index + 1]))
        layer = next_layer
    return layer[0]


def alu(
    builder: NetlistBuilder, a: list[str], b: list[str], opcode: list[str]
) -> list[str]:
    """Small ALU: opcode selects between ADD, AND, OR, XOR (2-bit opcode).

    Wider opcodes select among replicated slices; only the two low bits are
    functional, which mirrors the partially-used control fields of real
    processor decoders (another source of biased nets).
    """
    add_bus, _carry = ripple_carry_adder(builder, a, b)
    and_bus = [builder.and_(x, y) for x, y in zip(a, b)]
    or_bus = [builder.or_(x, y) for x, y in zip(a, b)]
    xor_bus = [builder.xor(x, y) for x, y in zip(a, b)]
    return mux_tree(builder, opcode[:2], [add_bus, and_bus, or_bus, xor_bus])


__all__ = [
    "half_adder",
    "full_adder",
    "ripple_carry_adder",
    "array_multiplier",
    "decoder",
    "equality_comparator",
    "magnitude_comparator",
    "parity_tree",
    "mux_bus",
    "mux_tree",
    "alu",
]
