"""Reader and writer for the ISCAS ``.bench`` netlist format.

The ``.bench`` format is the standard interchange format for the ISCAS-85 and
ISCAS-89 benchmark suites that the paper evaluates on.  This module lets users
load real benchmark files (if they have them) into the library and lets the
benchmark generators export their synthetic analogues in a format compatible
with external tools.

Grammar (one statement per line)::

    INPUT(net)
    OUTPUT(net)
    net = GATE(a, b, ...)          # AND, OR, NAND, NOR, XOR, XNOR, NOT, BUF/BUFF
    net = DFF(d)                   # D flip-flop
    # comment
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.circuits.gates import GateType
from repro.circuits.netlist import Netlist

_STATEMENT = re.compile(
    r"^\s*(?:"
    r"INPUT\((?P<input>[^)]+)\)"
    r"|OUTPUT\((?P<output>[^)]+)\)"
    r"|(?P<lhs>\S+)\s*=\s*(?P<func>\w+)\s*\((?P<args>[^)]*)\)"
    r")\s*$",
    re.IGNORECASE,
)

_GATE_ALIASES = {
    "AND": GateType.AND,
    "OR": GateType.OR,
    "NAND": GateType.NAND,
    "NOR": GateType.NOR,
    "XOR": GateType.XOR,
    "XNOR": GateType.XNOR,
    "NOT": GateType.NOT,
    "INV": GateType.NOT,
    "BUF": GateType.BUF,
    "BUFF": GateType.BUF,
}


class BenchParseError(ValueError):
    """Raised when a ``.bench`` file cannot be parsed."""


def loads_bench(text: str, name: str = "bench") -> Netlist:
    """Parse ``.bench`` text into a :class:`Netlist`."""
    netlist = Netlist(name)
    pending_outputs: list[str] = []
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        match = _STATEMENT.match(line)
        if match is None:
            raise BenchParseError(f"line {line_number}: cannot parse {raw_line!r}")
        if match.group("input"):
            netlist.add_input(match.group("input").strip())
        elif match.group("output"):
            pending_outputs.append(match.group("output").strip())
        else:
            lhs = match.group("lhs").strip()
            func = match.group("func").upper()
            args = [arg.strip() for arg in match.group("args").split(",") if arg.strip()]
            if func == "DFF":
                if len(args) != 1:
                    raise BenchParseError(
                        f"line {line_number}: DFF takes exactly one input, got {len(args)}"
                    )
                netlist.add_flip_flop(lhs, args[0])
            elif func in _GATE_ALIASES:
                netlist.add_gate(lhs, _GATE_ALIASES[func], args)
            else:
                raise BenchParseError(f"line {line_number}: unknown function {func!r}")
    for output in pending_outputs:
        netlist.add_output(output)
    return netlist


def load_bench(path: str | Path, name: str | None = None) -> Netlist:
    """Load a ``.bench`` file from disk."""
    path = Path(path)
    return loads_bench(path.read_text(), name=name or path.stem)


def dumps_bench(netlist: Netlist) -> str:
    """Serialise a :class:`Netlist` to ``.bench`` text."""
    lines = [f"# {netlist.name}"]
    lines.extend(f"INPUT({net})" for net in netlist.inputs)
    lines.extend(f"OUTPUT({net})" for net in netlist.outputs)
    lines.extend(f"{ff.q} = DFF({ff.d})" for ff in netlist.flip_flops)
    for gate in netlist.topological_gates():
        args = ", ".join(gate.inputs)
        lines.append(f"{gate.output} = {gate.gate_type.value}({args})")
    return "\n".join(lines) + "\n"


__all__ = [
    "BenchParseError",
    "loads_bench",
    "load_bench",
    "dumps_bench",
]
