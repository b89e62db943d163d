"""The layer map covers ``src/repro`` exactly."""

import re

import layers
from conftest import ROOT

PACKAGE = ROOT / "src" / "repro"


def test_every_module_has_a_layer():
    # A new module must be given a layer in layers.LAYER_FILES (or live in
    # a package listed in OTHER_PACKAGES) before the profile can be trusted.
    assert layers.unmapped_modules(PACKAGE) == []


def test_no_layer_names_a_missing_module():
    listed = [rel for files in layers.LAYER_FILES.values() for rel in files]
    assert len(listed) == len(set(listed)), "a module is listed in two layers"
    assert [rel for rel in listed if not (PACKAGE / rel).is_file()] == []


def test_layer_names_are_metric_safe():
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", layer) for layer in layers.LAYERS)


def test_filenames_resolve_to_layers():
    assert layers.layer_of_filename(str(PACKAGE / "sim" / "events.py")) == "sim.kernel"
    assert layers.layer_of_filename(str(PACKAGE / "bench" / "runner.py")) == layers.OTHER
    assert layers.layer_of_filename("/usr/lib/python3/heapq.py") is None


def test_sampler_charges_the_innermost_repro_frame():
    sampler = layers.Sampler()

    class Code:
        def __init__(self, filename):
            self.co_filename = filename

    class Frame:
        def __init__(self, filename, back=None):
            self.f_code, self.f_back = Code(filename), back

    outer = Frame(str(PACKAGE / "sim" / "simulator.py"))
    middle = Frame(str(PACKAGE / "ringpaxos" / "coordinator.py"), outer)
    inner = Frame(str(PACKAGE / "ringpaxos" / "coordinator.py"), middle)
    harness = Frame("/somewhere/scenarios.py", inner)
    sampler._on_tick(None, harness)
    assert sampler.by_layer["ringpaxos.coordinator"] == 1
    assert sampler.folded() == "sim.kernel;ringpaxos.coordinator 1\n"
