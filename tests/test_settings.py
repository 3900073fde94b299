"""Which values every setting accepts.

Each setting of the four config classes and of the three configured
functions is tried with the same edge values (NaN, infinities, 0, -1, a
bool and a numeric string) and with the boundaries of its rule and the
values just inside and outside them. Every value is pinned as accepted
or rejected, and a rejection is one problem that names the setting.
"""

import math

import pytest

from vista.ensemble import EnsembleConfig
from vista.errors import ValidationError
from vista.evaluation import EvalConfig
from vista.postprocess import InferenceConfig
from vista.sampling import plan_frames
from vista.synth import NoiseConfig, generate_scenario, perturb_to_predictions

TINY = 5e-324  # the least positive float
BELOW_1, ABOVE_1 = math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)

# Values every setting is tried with.
COMMON = (math.nan, math.inf, -math.inf, 0, -1, True, "1")

# Kinds of setting: (the values tried besides COMMON, the values accepted).
INT_AT_LEAST_1 = ((1, 2, 1.0), (1, 2))
ANY_INT = ((1, 2**40, 1.0), (0, -1, 1, 2**40))
POSITIVE = ((0.0, -TINY, TINY, 1.0), (math.inf, TINY, 1.0))
FINITE_AT_LEAST_0 = ((0.0, -TINY, TINY, 1.0), (0, 0.0, TINY, 1.0))
FINITE_POSITIVE = ((0.0, -TINY, TINY, 1.0), (TINY, 1.0))
UNIT = (0.0, -TINY, TINY, BELOW_1, 1.0, ABOVE_1)
IN_0_1 = (UNIT, (0, 0.0, TINY, BELOW_1, 1.0))  # [0, 1]
IN_0_1_RIGHT = (UNIT, (TINY, BELOW_1, 1.0))  # (0, 1]
IN_0_1_OPEN = (UNIT, (TINY, BELOW_1))  # (0, 1): a match needs IoU > iou_min


def config(cls):
    return lambda name, value: cls(**{name: value})


def plan(name, value):
    return plan_frames(**{"query_time": 1.0, name: value})


def scenario(name, value):
    return generate_scenario(**{"n_examples": 1, name: value})


def sources(name, value):
    return perturb_to_predictions(*generate_scenario(n_examples=1), NoiseConfig(), **{name: value})


SETTINGS = [
    ("InferenceConfig", config(InferenceConfig), "max_proposals", INT_AT_LEAST_1),
    ("InferenceConfig", config(InferenceConfig), "k_noun", INT_AT_LEAST_1),
    ("InferenceConfig", config(InferenceConfig), "k_verb", INT_AT_LEAST_1),
    ("InferenceConfig", config(InferenceConfig), "nms_iou", POSITIVE),
    ("InferenceConfig", config(InferenceConfig), "max_exports", INT_AT_LEAST_1),
    ("EnsembleConfig", config(EnsembleConfig), "box_iou_min", IN_0_1_RIGHT),
    ("EnsembleConfig", config(EnsembleConfig), "ttc_tolerance", POSITIVE),
    ("EnsembleConfig", config(EnsembleConfig), "agreement_weight", IN_0_1),
    ("EnsembleConfig", config(EnsembleConfig), "n_sources", INT_AT_LEAST_1),
    ("EnsembleConfig", config(EnsembleConfig), "max_exports", INT_AT_LEAST_1),
    ("EvalConfig", config(EvalConfig), "iou_min", IN_0_1_OPEN),
    ("EvalConfig", config(EvalConfig), "ttc_max_error", POSITIVE),
    ("EvalConfig", config(EvalConfig), "top_k", INT_AT_LEAST_1),
    ("NoiseConfig", config(NoiseConfig), "box_jitter_sigma", FINITE_AT_LEAST_0),
    ("NoiseConfig", config(NoiseConfig), "label_flip_prob", IN_0_1),
    ("NoiseConfig", config(NoiseConfig), "verb_flip_prob", IN_0_1),
    ("NoiseConfig", config(NoiseConfig), "ttc_noise_sigma", FINITE_AT_LEAST_0),
    ("NoiseConfig", config(NoiseConfig), "drop_prob", IN_0_1),
    ("NoiseConfig", config(NoiseConfig), "seed", ANY_INT),
    ("plan_frames", plan, "query_time", FINITE_AT_LEAST_0),
    ("plan_frames", plan, "frame_count", INT_AT_LEAST_1),
    ("plan_frames", plan, "sample_rate", FINITE_POSITIVE),
    ("generate_scenario", scenario, "n_examples", INT_AT_LEAST_1),
    ("generate_scenario", scenario, "n_nouns", INT_AT_LEAST_1),
    ("generate_scenario", scenario, "n_verbs", INT_AT_LEAST_1),
    ("generate_scenario", scenario, "gts_per_example", INT_AT_LEAST_1),
    ("generate_scenario", scenario, "seed", ANY_INT),
    ("perturb_to_predictions", sources, "n_sources", INT_AT_LEAST_1),
]

CASES = [
    pytest.param(make, name, value, repr(value) in map(repr, accepted), id=f"{owner}.{name}={value!r}")
    for owner, make, name, (tried, accepted) in SETTINGS
    for value in COMMON + tried
]


@pytest.mark.parametrize("make, name, value, accepted", CASES)
def test_setting_value_accepted_or_rejected(make, name, value, accepted):
    try:
        make(name, value)
    except ValidationError:
        assert not accepted
    else:
        assert accepted


@pytest.mark.parametrize("make, name, value", [case.values[:3] for case in CASES if not case.values[3]],
                         ids=[case.id for case in CASES if not case.values[3]])
def test_each_problem_names_its_setting(make, name, value):
    with pytest.raises(ValidationError) as err:
        make(name, value)
    assert len(err.value.problems) == 1
    assert err.value.problems[0].startswith(f"{name} must be "), err.value.problems


FLOAT_KINDS = (POSITIVE, FINITE_AT_LEAST_0, FINITE_POSITIVE, IN_0_1, IN_0_1_RIGHT, IN_0_1_OPEN)


@pytest.mark.parametrize("make, name", [
    pytest.param(make, name, id=f"{owner}.{name}")
    for owner, make, name, kind in SETTINGS if any(kind is float_kind for float_kind in FLOAT_KINDS)
])
def test_float_setting_rejects_an_int_beyond_the_float_range(make, name):
    # Arithmetic with floats overflows on such an int.
    with pytest.raises(ValidationError) as err:
        make(name, 10**400)
    assert err.value.problems == [f"{name} must be a number within the float range, got {10**400!r}"]
