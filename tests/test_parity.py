"""The drift report of tests/parity.py, which names what moved between two
outputs that are not byte-identical."""
import json

import pytest

from parity import drift, drift_line


def test_drift_separates_float_noise_from_other_changes():
    old = {"loglik": [-10.0, 2.5], "n_iters": 7, "converged": True, "label": "a"}
    new = {"loglik": [-10.000000000000002, 2.5], "n_iters": 8, "converged": False,
           "label": "a"}
    d = drift(old, new)
    assert d["abs"] == pytest.approx(1.8e-15, rel=0.01)
    assert d["rel"] == pytest.approx(1.8e-16, rel=0.01)
    assert d["changed"] == [".n_iters", ".converged"]
    assert drift([1.0, 2.0], [1.0])["changed"] == ["."]       # a shape change
    assert drift({"a": 1.0}, {"b": 1.0})["changed"] == ["."]
    assert drift(float("nan"), float("nan"))["changed"] == []


@pytest.mark.parametrize("suffix,old,new", [
    (".json", json.dumps({"x": [1.0, 3.0]}), json.dumps({"x": [1.0, 3.5]})),
    (".jsonl", '{"x": 1.0}\n{"x": 3.0}\n', '{"x": 1.0}\n{"x": 3.5}\n'),
    (".csv", "name,x\nu0,1.0\nu1,3.0\n", "name,x\nu0,1.0\nu1,3.5\n"),
])
def test_drift_line_reads_each_output_format(tmp_path, suffix, old, new):
    a, b = tmp_path / f"a{suffix}", tmp_path / f"b{suffix}"
    a.write_text(old)
    b.write_text(new)
    line = drift_line("out", a, b)
    assert "at most 0.5 (relative 0.143)" in line
    assert "no other field changed" in line
