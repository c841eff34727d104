"""Shared fixtures for the test suite.

The fixtures keep the expensive objects (benchmark circuits, compatibility
analyses) session-scoped so the several hundred tests stay fast.
"""

from __future__ import annotations

import os

import pytest

from repro.circuits import generators
from repro.core.compatibility import compute_compatibility
from repro.core.config import DeterrentConfig
from repro.rl.ppo import PpoConfig
from repro.simulation.rare_nets import extract_rare_nets


@pytest.fixture(scope="session")
def c17():
    """The real ISCAS-85 c17 circuit."""
    return generators.c17()


@pytest.fixture(scope="session")
def small_multiplier():
    """A 4x4 array multiplier: small enough for exhaustive checks."""
    return generators.multiplier_circuit("mult4", width=4)


@pytest.fixture(scope="session")
def small_random_circuit():
    """A reproducible random circuit with 8 inputs (256 exhaustive patterns)."""
    return generators.random_logic_circuit(
        "rand8", num_inputs=8, num_gates=60, num_outputs=6, seed=1234
    )


@pytest.fixture(scope="session")
def multiplier_rare_nets(small_multiplier):
    """Rare nets of the small multiplier at threshold 0.2."""
    return extract_rare_nets(small_multiplier, threshold=0.2, num_patterns=2048, seed=0)


@pytest.fixture(scope="session")
def multiplier_compatibility(small_multiplier, multiplier_rare_nets):
    """Compatibility analysis of the small multiplier."""
    return compute_compatibility(small_multiplier, multiplier_rare_nets)


@pytest.fixture()
def tiny_config():
    """A DETERRENT configuration small enough for unit tests."""
    return DeterrentConfig(
        num_probability_patterns=512,
        episode_length=10,
        num_envs=2,
        total_training_steps=256,
        k_patterns=8,
        seed=0,
        ppo=PpoConfig(num_steps=32, minibatch_size=32, hidden_sizes=(16, 16), num_epochs=2),
    )


@pytest.fixture()
def default_cache(monkeypatch):
    """Install the process-wide default artifact cache (None: no cache) for one test.

    Every offline-phase artifact is fetched through the default cache, so a
    test picks its cache here; the previous default comes back afterwards.
    """
    from repro.runner import cache as cache_module

    def install(cache):
        monkeypatch.setattr(cache_module, "_default_cache", cache)
        monkeypatch.setattr(cache_module, "_default_resolved", True)
        return cache

    return install


@pytest.fixture(params=["native", "reference"])
def solver_kernel(request, monkeypatch):
    """Run the test on the solver's C kernel and on its Python reference path.

    Gives the kernel module, or None on the reference path, which is forced
    by making the loader report that no kernel could be built.
    """
    from repro.sat import native

    if request.param == "reference":
        monkeypatch.setattr(native, "kernel", lambda: None)
        return None
    kernel = native.kernel()
    if kernel is None:
        pytest.skip("the C kernel cannot be built on this host (no C compiler or Python headers)")
    return kernel


#: Compiler flags of the sanitizer build: AddressSanitizer and UndefinedBehaviorSanitizer,
#: with any undefined behaviour fatal.
SANITIZE_FLAGS = (
    "-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=undefined",
    "-shared", "-fPIC",
)


@pytest.fixture(scope="session", autouse=True)
def sanitized_kernel(tmp_path_factory):
    """With ``REPRO_TEST_SANITIZE=1``, run every test on a sanitizer build of the kernel.

    CI's sanitizer job sets it and preloads gcc's ``libasan.so`` and
    ``libubsan.so``; the build goes to a temporary directory.  Unset, this
    does nothing.
    """
    if os.environ.get("REPRO_TEST_SANITIZE") != "1":
        yield None
        return
    from repro.sat import native

    build_dir = tmp_path_factory.mktemp("sanitized-kernel")
    module = native.load(native.SOURCE, build_dir, flags=SANITIZE_FLAGS)
    if module is None:
        raise RuntimeError("the sanitizer build of the solver kernel failed")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "kernel", lambda: module)
        yield module
