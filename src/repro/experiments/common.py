"""Shared infrastructure for the experiment harnesses.

Provides the quick/full execution profiles, cached benchmark preparation
(rare nets, compatibility analysis, Trojan populations), and the paper's
reference numbers used for paper-vs-measured reporting.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.library import benchmark_entry, load_benchmark
from repro.circuits.netlist import Netlist
from repro.core.compatibility import CompatibilityAnalysis, cached_rare_nets, compute_compatibility
from repro.core.config import DeterrentConfig
from repro.rl.ppo import PpoConfig
from repro.runner.cache import cached, get_default_cache, netlist_fingerprint
from repro.simulation.rare_nets import RareNet
from repro.trojan.insertion import sample_trojans
from repro.trojan.model import Trojan


@dataclass(frozen=True)
class ExperimentProfile:
    """Execution scale of an experiment run."""

    name: str
    num_trojans: int
    trigger_width: int
    training_steps: int
    tgrl_training_steps: int
    k_patterns: int
    num_cliques: int
    num_probability_patterns: int
    num_envs: int
    episode_length: int
    seed: int = 0

    def deterrent_config(self, **overrides) -> DeterrentConfig:
        """Build a :class:`DeterrentConfig` matching this profile."""
        config = DeterrentConfig(
            num_probability_patterns=self.num_probability_patterns,
            episode_length=self.episode_length,
            num_envs=self.num_envs,
            total_training_steps=self.training_steps,
            k_patterns=self.k_patterns,
            seed=self.seed,
            ppo=PpoConfig(num_steps=64, minibatch_size=64, hidden_sizes=(64, 64)),
        )
        return config.with_overrides(**overrides) if overrides else config


#: Fast default profile of the harness CLIs; minutes across all harnesses.
QUICK = ExperimentProfile(
    name="quick",
    num_trojans=40,
    trigger_width=4,
    training_steps=2048,
    tgrl_training_steps=1024,
    k_patterns=128,
    num_cliques=64,
    num_probability_patterns=2048,
    num_envs=2,
    episode_length=30,
)

#: Larger profile that tracks the paper's qualitative results more closely.
FULL = ExperimentProfile(
    name="full",
    num_trojans=100,
    trigger_width=4,
    training_steps=8192,
    tgrl_training_steps=4096,
    k_patterns=400,
    num_cliques=300,
    num_probability_patterns=4096,
    num_envs=4,
    episode_length=35,
)


#: Smallest profile: CLI smoke tests and unit tests; seconds per harness.
TINY = ExperimentProfile(
    name="tiny",
    num_trojans=12,
    trigger_width=3,
    training_steps=256,
    tgrl_training_steps=128,
    k_patterns=16,
    num_cliques=12,
    num_probability_patterns=512,
    num_envs=2,
    episode_length=12,
)


def as_tuple(value) -> tuple:
    """Normalise an experiment option to a tuple.

    CLI ``--set`` values arrive as scalars (``--set designs=c2670_like``
    json-decodes to a bare string); wrapping instead of iterating prevents a
    string from being consumed character by character.
    """
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return (value,)


def profile_by_name(name: str) -> ExperimentProfile:
    """Look up a profile by its name ('tiny', 'quick', or 'full')."""
    profiles = {"tiny": TINY, "quick": QUICK, "full": FULL}
    try:
        return profiles[name]
    except KeyError:
        raise KeyError(f"unknown profile {name!r}; available: {sorted(profiles)}") from None


@dataclass
class BenchmarkContext:
    """Everything the harnesses need about one benchmark circuit."""

    name: str
    netlist: Netlist
    rare_nets: list[RareNet]
    compatibility: CompatibilityAnalysis
    trojans: list[Trojan]
    paper_num_gates: int = 0
    paper_num_rare_nets: int = 0
    threshold: float = 0.1

    @property
    def num_rare_nets(self) -> int:
        """Number of activatable rare nets used by the techniques."""
        return self.compatibility.num_rare_nets


_CONTEXT_CACHE: dict[tuple, BenchmarkContext] = {}


def prepare_benchmark(
    name: str,
    profile: ExperimentProfile = QUICK,
    threshold: float = 0.1,
    trigger_width: int | None = None,
) -> BenchmarkContext:
    """Load a benchmark and precompute rare nets, compatibility, and Trojans.

    The offline phase is the same for every technique, so each artifact goes
    through the default artifact cache (:func:`repro.runner.cache.cached`);
    this function owns the ``trojans`` kind.  Contexts are also memoised in
    the process per (benchmark, profile, threshold, width, cache root), so a
    context built before a disk cache was configured is rebuilt through it.
    """
    width = trigger_width if trigger_width is not None else profile.trigger_width
    cache = get_default_cache()
    # The whole (frozen, hashable) profile is part of the key: two profiles
    # that share a name but differ in scale must not collide.  The root, not
    # the cache object, is keyed: each ``run_experiment(cache_dir=...)`` call
    # installs a new object on the same root.
    key = (name, profile, threshold, width, str(cache.root) if cache is not None else None)
    if key in _CONTEXT_CACHE:
        return _CONTEXT_CACHE[key]

    entry = benchmark_entry(name)
    netlist = load_benchmark(name)
    rare_nets = cached_rare_nets(
        netlist,
        threshold=threshold,
        num_patterns=profile.num_probability_patterns,
        seed=profile.seed,
    )
    compatibility = compute_compatibility(netlist, rare_nets)
    compatibility.justifier.set_preferred_values(
        {rare.net: rare.rare_value for rare in compatibility.rare_nets}
    )
    trojans = cached(
        "trojans",
        lambda: sample_trojans(
            netlist,
            compatibility.rare_nets,
            num_trojans=profile.num_trojans,
            trigger_width=width,
            seed=profile.seed + 1,
            justifier=compatibility.justifier,
        ),
        netlist=netlist_fingerprint(netlist),
        rare_nets=[(rare.net, rare.rare_value) for rare in compatibility.rare_nets],
        num_trojans=profile.num_trojans,
        trigger_width=width,
        seed=profile.seed + 1,
    )
    context = BenchmarkContext(
        name=name,
        netlist=netlist,
        rare_nets=rare_nets,
        compatibility=compatibility,
        trojans=trojans,
        paper_num_gates=entry.paper_num_gates,
        paper_num_rare_nets=entry.paper_num_rare_nets,
        threshold=threshold,
    )
    _CONTEXT_CACHE[key] = context
    return context


def clear_context_cache() -> None:
    """Drop all cached benchmark contexts (used by tests)."""
    _CONTEXT_CACHE.clear()


#: Paper Table 2 reference values: design -> (rare nets, gates, per-technique
#: (test length, coverage %)).  ``None`` marks cells the paper leaves empty.
PAPER_TABLE2: dict[str, dict] = {
    "c2670": {
        "rare_nets": 43, "gates": 775,
        "Random": (5306, 10), "TestMAX": (89, 27), "TARMAC": (5306, 100),
        "TGRL": (5306, 96), "DETERRENT": (8, 100),
    },
    "c5315": {
        "rare_nets": 165, "gates": 2307,
        "Random": (8066, 37), "TestMAX": (103, 5), "TARMAC": (8066, 61),
        "TGRL": (8066, 94), "DETERRENT": (1585, 99),
    },
    "c6288": {
        "rare_nets": 186, "gates": 2416,
        "Random": (3205, 54), "TestMAX": (38, 4), "TARMAC": (3205, 100),
        "TGRL": (3205, 85), "DETERRENT": (2096, 99),
    },
    "c7552": {
        "rare_nets": 282, "gates": 3513,
        "Random": (9357, 10), "TestMAX": (137, 4), "TARMAC": (9357, 73),
        "TGRL": (9357, 71), "DETERRENT": (5910, 85),
    },
    "s13207": {
        "rare_nets": 604, "gates": 1801,
        "Random": (9659, 3), "TestMAX": (106, 4), "TARMAC": (9659, 80),
        "TGRL": (9659, 5), "DETERRENT": (9600, 80),
    },
    "s15850": {
        "rare_nets": 649, "gates": 2412,
        "Random": (9512, 3), "TestMAX": (110, 3), "TARMAC": (9512, 79),
        "TGRL": (9512, 8), "DETERRENT": (6197, 81),
    },
    "s35932": {
        "rare_nets": 1151, "gates": 4736,
        "Random": (3083, 99), "TestMAX": (37, 68), "TARMAC": (3083, 100),
        "TGRL": (3083, 58), "DETERRENT": (6, 100),
    },
    "MIPS": {
        "rare_nets": 1005, "gates": 23511,
        "Random": (25000, 0), "TestMAX": (796, 0), "TARMAC": (25000, 100),
        "TGRL": (None, None), "DETERRENT": (1304, 97),
    },
}


__all__ = [
    "ExperimentProfile",
    "QUICK",
    "FULL",
    "TINY",
    "as_tuple",
    "profile_by_name",
    "BenchmarkContext",
    "prepare_benchmark",
    "clear_context_cache",
    "PAPER_TABLE2",
]
