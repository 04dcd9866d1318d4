import json

import numpy as np
import pytest

from cbmpomdp import GmmModel, IohmmModel, Policy, bearing_pomdp
from cbmpomdp.errors import DataError
from synth import left_to_right_model


def saved_models():
    pomdp = bearing_pomdp()
    return [
        pomdp,
        Policy(alphas=np.ones((2, 6)), alpha_actions=np.array([0, 3]),
               action_labels=pomdp.action_labels, discount=0.95,
               beliefs=np.eye(6)[:2], iterations=4, residual=1e-5),
        GmmModel(weights=np.array([0.5, 0.5]), means=np.array([[0.0], [1.0]]),
                 covariances=np.ones((2, 1, 1))),
        left_to_right_model(n_states=2, n_actions=2, n_features=3,
                            separation=6.0, stay=(0.8, 0.6)),
    ]


@pytest.mark.parametrize("model", saved_models(), ids=lambda m: type(m).__name__)
def test_load_rejects_incomplete_files(tmp_path, model):
    cls = type(model)
    path = tmp_path / "model.json"
    model.save(path)
    text = path.read_text()
    assert cls.load(path).to_dict() == model.to_dict()
    path.write_text(text[:len(text) // 2])
    with pytest.raises(DataError):
        cls.load(path)
    for key in json.loads(text):
        d = json.loads(text)
        del d[key]
        path.write_text(json.dumps(d))
        with pytest.raises(DataError):
            cls.load(path)


@pytest.mark.parametrize("field,value", [
    ("alphas", [1.0, 2.0]),               # not 2-D
    ("alpha_actions", [0]),               # one action for two vectors
    ("alpha_actions", [0, 2]),            # only two labels
    ("alpha_actions", [-1, 0]),
])
def test_policy_rejects_inconsistent_alphas(field, value):
    d = Policy(alphas=np.zeros((2, 3)), alpha_actions=np.array([0, 1]),
               action_labels=("run", "PM"), discount=0.9).to_dict()
    d[field] = value
    with pytest.raises(DataError):
        Policy.from_dict(d)


@pytest.mark.parametrize("field,value", [
    ("transitions", [[[0.5, 0.5]]]),                      # 1 x 1 x 2, not square
    ("transitions", [[0.5, 0.5], [0.0, 1.0]]),            # not a stack of matrices
    ("transitions", [[[0.8, 0.2], [0.0, 1.0]]] * 3),      # three matrices, two labels
    ("transitions", [[[0.8, 0.3], [0.0, 1.0]]] * 2),      # a row summing to 1.1
    ("transitions", [[[1.2, -0.2], [0.0, 1.0]]] * 2),     # a negative entry
    ("initial", [1.0]),                                   # one entry for two states
    ("initial", [0.5, 0.6]),
    ("means", [[0.0, 0.0, 0.0], [6.0, 3.0, 0.0], [1.0, 1.0, 1.0]]),   # three states
    ("means", [[0.0, float("nan"), 0.0], [6.0, 3.0, 0.0]]),
    ("covariances", [[[1.0]], [[1.0]]]),                  # 1 x 1 for 3 features
    ("emission_mode", "action"),                          # shared-shaped emissions
    ("emission_mode", "pooled"),
    ("sort_key", 3),
])
def test_iohmm_rejects_inconsistent_fields(field, value):
    d = left_to_right_model(n_states=2, n_actions=2, n_features=3).to_dict()
    d[field] = value
    with pytest.raises(DataError):
        IohmmModel.from_dict(d)
