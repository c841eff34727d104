"""The temporal SAT subsystem: time-frame expansion and trigger justification.

Differential coverage for the unrolled transition relation:

- a model of the unrolled CNF must agree bit-for-bit with the compiled
  multi-cycle engine under the same input sequence (the encoding *is* the
  machine);
- every :class:`SequentialJustifier` witness must fire its trigger when
  replayed through :class:`CompiledSequentialNetlist` **and** through the
  infected-netlist ground-truth oracle;
- crafted unreachable triggers must be UNSAT at any depth even though the
  full-scan (single-cycle) view calls them satisfiable;
- incremental depth extension must answer exactly like a fresh unroll.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.circuits.gates import GateType
from repro.circuits.library import load_benchmark
from repro.circuits.netlist import Netlist
from repro.core.patterns import SequenceSet
from repro.sat.justify import Justifier
from repro.sat.temporal import (
    SequenceWitness,
    SequentialJustifier,
    replay_fire_cycles,
    temporal_fire_cycles,
)
from repro.sat.unroll import TimeFrameExpansion
from repro.circuits.scan import ensure_combinational
from repro.simulation.compiled import compile_sequential_netlist
from repro.simulation.rare_nets import extract_rare_nets
from repro.trojan.evaluation import (
    sequence_ground_truth_coverage,
    sequence_trigger_coverage,
)
from repro.trojan.insertion import sample_sequential_trojans
from repro.trojan.model import SequentialTrigger, SequentialTrojan, TriggerCondition


@pytest.fixture(scope="module")
def controller():
    """The smallest sequential library benchmark, flip-flops intact."""
    return load_benchmark("s13207_like", combinational_view=False)


def toy_netlist() -> Netlist:
    """input a -> DFF q; mix = a AND q: mix=1 needs a=1 in two adjacent cycles."""
    netlist = Netlist("toy")
    netlist.add_input("a")
    netlist.add_input("b")
    netlist.add_flip_flop("q", "a")
    netlist.add_gate("mix", GateType.AND, ("a", "q"))
    netlist.add_gate("obs", GateType.OR, ("mix", "b"))
    netlist.add_output("obs")
    return netlist


def unreachable_netlist() -> Netlist:
    """Two flip-flops always loaded with complementary values.

    ``both = fa AND fb`` can never be 1 on any sequence from reset (the
    registers start at 0 and are complementary from cycle 1 on), yet the
    full-scan view treats ``fa``/``fb`` as free pseudo inputs and calls the
    condition satisfiable — exactly the gap the unrolled encoding closes.
    """
    netlist = Netlist("unreach")
    netlist.add_input("x")
    netlist.add_gate("nx", GateType.NOT, ("x",))
    netlist.add_flip_flop("fa", "x")
    netlist.add_flip_flop("fb", "nx")
    netlist.add_gate("both", GateType.AND, ("fa", "fb"))
    netlist.add_output("both")
    return netlist


def mix_trigger(mode: str, count: int) -> SequentialTrigger:
    return SequentialTrigger(
        condition=TriggerCondition((("mix", 1),)), mode=mode, count=count
    )


class TestTimeFrameExpansion:
    def test_rejects_combinational(self):
        from repro.circuits import generators

        with pytest.raises(ValueError, match="sequential"):
            TimeFrameExpansion(generators.c17())

    def test_validates_frame_count_and_initial_state(self):
        netlist = toy_netlist()
        with pytest.raises(ValueError):
            TimeFrameExpansion(netlist, num_frames=0)
        with pytest.raises(KeyError):
            TimeFrameExpansion(netlist, initial_state={"ghost": 1})
        with pytest.raises(ValueError):
            TimeFrameExpansion(netlist, initial_state={"q": 2})
        expansion = TimeFrameExpansion(netlist, num_frames=2)
        with pytest.raises(ValueError):
            expansion.extend_to(0)
        with pytest.raises(IndexError):
            expansion.variable("q", 2)
        with pytest.raises(KeyError):
            expansion.variable("ghost", 0)

    def test_reset_state_is_pinned_at_frame_zero(self):
        expansion = TimeFrameExpansion(toy_netlist(), num_frames=3)
        assert not expansion.solve([expansion.literal("q", 1, 0)]).satisfiable
        assert expansion.solve([expansion.literal("q", 0, 0)]).satisfiable
        # Later frames are reachable at either value (q copies input a).
        assert expansion.solve([expansion.literal("q", 1, 1)]).satisfiable

    def test_initial_state_override(self):
        expansion = TimeFrameExpansion(
            toy_netlist(), num_frames=2, initial_state={"q": 1}
        )
        assert expansion.solve([expansion.literal("q", 1, 0)]).satisfiable
        assert not expansion.solve([expansion.literal("q", 0, 0)]).satisfiable
        # mix = a AND q can now hold at cycle 0.
        assert expansion.solve([expansion.literal("mix", 1, 0)]).satisfiable

    def test_state_transfer_between_frames(self):
        expansion = TimeFrameExpansion(toy_netlist(), num_frames=3)
        # q at frame t+1 must equal input a at frame t.
        assert not expansion.solve(
            [expansion.literal("a", 1, 0), expansion.literal("q", 0, 1)]
        ).satisfiable
        assert not expansion.solve(
            [expansion.literal("a", 0, 1), expansion.literal("q", 1, 2)]
        ).satisfiable

    @pytest.mark.parametrize("design", ["toy", "controller"])
    def test_model_matches_compiled_engine(self, design, controller):
        """Assuming a simulated input sequence must reproduce every net value."""
        netlist = toy_netlist() if design == "toy" else controller
        frames = 5
        expansion = TimeFrameExpansion(netlist, num_frames=frames)
        compiled = compile_sequential_netlist(netlist)
        rng = np.random.default_rng(7)
        sequence = rng.integers(0, 2, size=(1, frames, len(netlist.inputs)), dtype=np.uint8)
        tensor, _ = compiled.run_sequences(sequence)
        one = np.uint64(1)
        assumptions = [
            expansion.literal(net, int(tensor[t, compiled.index_of(net), 0] & one), t)
            for t in range(frames)
            for net in netlist.inputs
        ]
        result = expansion.solve(assumptions)
        assert result.satisfiable
        for t in range(frames):
            for net in compiled.net_names:
                simulated = int(tensor[t, compiled.index_of(net), 0] & one)
                modelled = int(result.model.get(expansion.variable(net, t), False))
                assert simulated == modelled, (net, t)

    def test_decode_inputs_round_trips_through_the_engine(self):
        netlist = toy_netlist()
        expansion = TimeFrameExpansion(netlist, num_frames=4)
        result = expansion.solve([expansion.literal("mix", 1, 3)])
        assert result.satisfiable
        sequence = expansion.decode_inputs(result)
        assert sequence.shape == (4, 2)
        from repro.sat.temporal import condition_bits

        bits = condition_bits(netlist, TriggerCondition((("mix", 1),)), sequence)
        assert bool(bits[3])

    def test_incremental_extension_matches_fresh_unroll(self, controller):
        rare = extract_rare_nets(
            controller, threshold=0.1, num_patterns=256, seed=0, cycles=6
        )
        probes = rare[:6] + rare[-6:]
        grown = TimeFrameExpansion(controller, num_frames=2)
        for depth in (3, 6):
            grown.extend_to(depth)
            fresh = TimeFrameExpansion(controller, num_frames=depth)
            for item in probes:
                verdicts = set()
                for expansion in (grown, fresh):
                    verdicts.add(
                        any(
                            expansion.solve(
                                [expansion.literal(item.net, item.rare_value, t)]
                            ).satisfiable
                            for t in range(depth)
                        )
                    )
                assert len(verdicts) == 1, (item.net, depth)

    def test_query_counter(self):
        expansion = TimeFrameExpansion(toy_netlist(), num_frames=2)
        before = expansion.num_queries
        expansion.solve()
        expansion.solve([expansion.literal("a", 1, 0)])
        assert expansion.num_queries == before + 2


class TestTemporalFireCycles:
    def test_consecutive_matches_hand_computation(self):
        bits = np.array([1, 1, 0, 1, 1, 1], dtype=bool)
        assert temporal_fire_cycles("consecutive", 2, bits) == [1, 4, 5]
        assert temporal_fire_cycles("consecutive", 3, bits) == [5]
        assert temporal_fire_cycles("consecutive", 4, bits) == []

    def test_cumulative_matches_hand_computation(self):
        bits = np.array([1, 0, 1, 0, 1], dtype=bool)
        assert temporal_fire_cycles("cumulative", 2, bits) == [2, 4]
        assert temporal_fire_cycles("cumulative", 3, bits) == [4]
        assert temporal_fire_cycles("cumulative", 4, bits) == []

    def test_count_one_fires_on_every_activation(self):
        bits = np.array([0, 1, 1], dtype=bool)
        for mode in ("consecutive", "cumulative"):
            assert temporal_fire_cycles(mode, 1, bits) == [1, 2]


class TestSequentialJustifier:
    def test_toy_satisfiability_matrix(self):
        """mix can hold at cycles 1..3 of a 4-cycle horizon, never at cycle 0."""
        justifier = SequentialJustifier(toy_netlist(), cycles=4)
        expectations = {
            ("consecutive", 2): True,
            ("consecutive", 3): True,
            ("consecutive", 4): False,  # would need mix at cycle 0
            ("cumulative", 3): True,
            ("cumulative", 4): False,
            ("cumulative", 5): False,  # count exceeds the horizon
        }
        for (mode, count), expected in expectations.items():
            assert justifier.is_satisfiable(mix_trigger(mode, count)) is expected, (
                mode, count,
            )

    def test_witness_replays_through_the_compiled_engine(self):
        netlist = toy_netlist()
        justifier = SequentialJustifier(netlist, cycles=5)
        for mode, count in [("consecutive", 2), ("consecutive", 3),
                            ("cumulative", 2), ("cumulative", 4)]:
            trigger = mix_trigger(mode, count)
            witness = justifier.witness(trigger)
            assert isinstance(witness, SequenceWitness)
            fires = replay_fire_cycles(netlist, trigger, witness.sequence)
            assert fires and fires[0] == witness.fire_cycle, (mode, count)

    def test_witness_detected_by_ground_truth_oracle(self):
        """The witness fires the physically inserted Trojan hardware too."""
        netlist = toy_netlist()
        justifier = SequentialJustifier(netlist, cycles=5)
        for mode, count in [("consecutive", 3), ("cumulative", 3)]:
            trigger = mix_trigger(mode, count)
            witness = justifier.witness(trigger)
            trojan = SequentialTrojan(
                trigger=trigger, payload_output="obs", name=f"{mode}{count}"
            )
            workload = SequenceSet(
                inputs=witness.inputs, sequences=witness.sequence[None, :, :]
            )
            batched = sequence_trigger_coverage(netlist, [trojan], workload)
            oracle = sequence_ground_truth_coverage(netlist, [trojan], workload)
            assert batched.detected == [True]
            assert oracle.detected == [True]

    def test_unreachable_trigger_unsat_despite_scan_view_sat(self):
        """UNSAT agreement: the crafted trigger needs an unreachable state."""
        netlist = unreachable_netlist()
        condition = TriggerCondition((("both", 1),))
        scan_view = Justifier(ensure_combinational(netlist))
        assert scan_view.is_satisfiable(condition.as_assignment())
        justifier = SequentialJustifier(netlist, cycles=8)
        for mode in ("consecutive", "cumulative"):
            trigger = SequentialTrigger(condition=condition, mode=mode, count=1)
            assert not justifier.is_satisfiable(trigger)
            assert justifier.witness(trigger) is None

    def test_incremental_extension_matches_fresh_unroll(self):
        netlist = toy_netlist()
        grown = SequentialJustifier(netlist, cycles=2)
        trigger = mix_trigger("consecutive", 3)
        assert not grown.is_satisfiable(trigger)  # horizon too shallow
        grown.extend_to(5)
        fresh = SequentialJustifier(netlist, cycles=5)
        assert grown.is_satisfiable(trigger) and fresh.is_satisfiable(trigger)
        for justifier in (grown, fresh):
            witness = justifier.witness(trigger)
            fires = replay_fire_cycles(netlist, trigger, witness.sequence)
            assert fires and fires[0] == witness.fire_cycle

    def test_shallow_horizon_answers_like_a_shallow_unroll(self):
        """Querying cycles=N on a deeper justifier equals a fresh N-cycle one."""
        netlist = toy_netlist()
        deep = SequentialJustifier(netlist, cycles=6)
        shallow = SequentialJustifier(netlist, cycles=3)
        for mode, count in [("consecutive", 2), ("cumulative", 3), ("cumulative", 4)]:
            trigger = mix_trigger(mode, count)
            assert deep.is_satisfiable(trigger, cycles=3) == shallow.is_satisfiable(
                trigger
            ), (mode, count)

    def test_count_one_degenerates_to_single_cycle_reachability(self):
        justifier = SequentialJustifier(toy_netlist(), cycles=4)
        consecutive = justifier.witness(mix_trigger("consecutive", 1))
        cumulative = justifier.witness(mix_trigger("cumulative", 1))
        # mix requires q=1, i.e. a=1 the cycle before: never fires at cycle 0.
        assert consecutive.fire_cycle >= 1
        assert cumulative.fire_cycle >= 1

    def test_preferred_values_keep_witnesses_valid(self):
        netlist = toy_netlist()
        justifier = SequentialJustifier(netlist, cycles=4)
        justifier.set_preferred_values({"mix": 1, "b": 0})
        trigger = mix_trigger("cumulative", 2)
        witness = justifier.witness(trigger)
        fires = replay_fire_cycles(netlist, trigger, witness.sequence)
        assert fires and fires[0] == witness.fire_cycle
        with pytest.raises(KeyError):
            justifier.set_preferred_values({"ghost": 1})

    def test_library_benchmark_witness_is_covered_by_the_evaluator(self, controller):
        """A justified sampled Trojan is detected by the batched evaluator."""
        cycles = 4
        rare = extract_rare_nets(
            controller, threshold=0.1, num_patterns=512, seed=0, cycles=cycles
        )
        trojans = sample_sequential_trojans(
            controller, rare, num_trojans=12, trigger_width=3,
            mode="cumulative", count=2, seed=1,
        )
        justifier = SequentialJustifier(controller, cycles=cycles)
        witnessed = []
        for trojan in trojans:
            witness = justifier.witness(trojan.trigger)
            if witness is not None:
                witnessed.append((trojan, witness))
        assert witnessed, "no sampled trigger is temporally reachable at depth 4"
        for trojan, witness in witnessed:
            workload = SequenceSet(
                inputs=witness.inputs, sequences=witness.sequence[None, :, :]
            )
            coverage = sequence_trigger_coverage(controller, [trojan], workload)
            assert coverage.detected == [True]


#: Triggers encoded by the encoding pin below: every rule at k = 1..3 on a
#: one-net condition and on two multi-net conditions (indicator variables).
ENCODED_TRIGGERS = [
    SequentialTrigger(condition=TriggerCondition(requirements), mode=mode, count=count)
    for requirements in ((("mix", 1),), (("a", 1), ("b", 0)), (("obs", 0), ("q", 1)))
    for mode in ("consecutive", "cumulative")
    for count in (1, 2, 3)
]
ENCODING_DIGEST = "5f98a40029af779239447392f4c341239f28e9baa0909c9debd2f87e11e4721f"


def _encoding_digest(justifier: SequentialJustifier) -> str:
    """sha256 over the solver's variable count, clauses, binary implications and units."""
    solver = justifier.expansion._solver
    state = [
        solver._num_vars,
        [list(clause) for clause in solver._problem],
        [[implied for implied, _ in entries] for entries in solver._binary],
        solver._trail,
    ]
    return hashlib.sha256(json.dumps(state).encode()).hexdigest()


@pytest.mark.usefixtures("solver_kernel")
class TestEncodingPins:
    def test_encoding_is_pinned(self):
        """Variable numbers, clause order and level-0 units of a fixed encoding.

        Horizon 4 and then 8 covers incremental ``extend_to`` between chain
        extensions.  The constant was recorded before encodings were batched,
        so batching changed neither numbering nor clause order.
        """
        justifier = SequentialJustifier(toy_netlist(), cycles=1)
        for horizon in (4, 8):
            for trigger in ENCODED_TRIGGERS:
                justifier._fired_by(trigger, horizon)
        assert _encoding_digest(justifier) == ENCODING_DIGEST

    def test_a_new_chain_grows_the_solver_once(self, monkeypatch):
        """One growth per new frame, then one for every auxiliary variable of the chain."""
        justifier = SequentialJustifier(toy_netlist(), cycles=2)
        solver = justifier.expansion._solver
        growths = []
        ensure_vars = solver._ensure_vars

        def counting(num_vars):
            if num_vars > solver._num_vars:
                growths.append(num_vars)
            ensure_vars(num_vars)

        monkeypatch.setattr(solver, "_ensure_vars", counting)
        trigger = SequentialTrigger(
            condition=TriggerCondition((("a", 1), ("b", 0))), mode="cumulative", count=3
        )
        assert justifier._fired_by(trigger, 5) is not None
        frame_size = justifier.expansion._frame_size
        assert growths[:3] == [3 * frame_size, 4 * frame_size, 5 * frame_size]
        assert len(growths) == 4 and growths[3] == solver._num_vars > 5 * frame_size
