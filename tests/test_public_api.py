"""The public names of the package: each resolves, none is listed twice, and
removed names and parameters stay removed from the package and from its
modules."""

import dataclasses
import inspect

import numpy as np
import pytest

import pagecusum
from pagecusum import ValidationError, datagen, detectors, wiener

REMOVED = ("DetectorState", "step_detector", "WienerPath", "detector_stat",
           "ScanCarry", "chunk_bound", "scan_chunk", "generate_garch11",
           "StreamSpec", "generate_stream")


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
        assert not hasattr(datagen, name)
        assert not hasattr(detectors, name)
        assert not hasattr(wiener, name)


def test_removed_parameters_are_gone():
    # d1 is solved by compute_normalization, stopped follows from tau, the
    # table's gammas are the keys of its critical-value dicts, and alpha and
    # the normalization's c were never read
    assert "c" not in inspect.signature(pagecusum.classify_case).parameters
    fields = {f.name for f in dataclasses.fields(pagecusum.StoppingResult)}
    assert "stopped" not in fields
    assert pagecusum.StoppingResult(tau=3).stopped
    assert not pagecusum.StoppingResult(tau=None).stopped
    table1 = inspect.signature(pagecusum.emit_table1).parameters
    assert not {"alpha", "gammas", "scenarios"} & set(table1)
    fields = {f.name for f in
              dataclasses.fields(pagecusum.AsymptoticNormalization)}
    assert "c" not in fields


def test_wiener_paths_are_arrays():
    path = pagecusum.sample_wiener_path(4, pagecusum.rng_stream(0, 0))
    assert isinstance(path, np.ndarray) and path.shape == (5,)
    # the bridge refinement stays importable from its module only
    assert "refine_wiener_path" not in pagecusum.__all__
    assert callable(wiener.refine_wiener_path)


@pytest.mark.parametrize("path", [np.zeros((2, 3)), np.zeros(2),
                                  np.array([0.5, 0.0, 1.0])])
@pytest.mark.parametrize("functional", [pagecusum.functional_ordinary,
                                        pagecusum.functional_page])
def test_functionals_reject_malformed_paths(functional, path):
    with pytest.raises(ValidationError, match="Wiener path"):
        functional(path, 0.0)
