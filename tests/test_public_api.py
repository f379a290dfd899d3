"""The public names of the package: each resolves, none is listed twice, and
removed names and parameters stay removed from the package and from its
modules."""

import dataclasses
import inspect

import pagecusum
from pagecusum import detectors

REMOVED = ("DetectorState", "step_detector")


def test_every_exported_name_resolves_once():
    names = pagecusum.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(pagecusum, name) is not None, name


def test_monitor_is_exported():
    assert "Monitor" in pagecusum.__all__
    assert pagecusum.Monitor is detectors.Monitor


def test_removed_names_are_gone():
    for name in REMOVED:
        assert name not in pagecusum.__all__
        assert not hasattr(pagecusum, name)
        assert not hasattr(detectors, name)


def test_removed_parameters_are_gone():
    # d1 is solved by compute_normalization, and stopped follows from tau
    assert "c" not in inspect.signature(pagecusum.classify_case).parameters
    fields = {f.name for f in dataclasses.fields(pagecusum.StoppingResult)}
    assert "stopped" not in fields
    assert pagecusum.StoppingResult(tau=3).stopped
    assert not pagecusum.StoppingResult(tau=None).stopped
