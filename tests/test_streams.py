import math

import numpy as np
import pytest

from fsolink.combiner import CombinerTopology
from fsolink.comms import ReceiverModel, monte_carlo_cumulated_ber
from fsolink.controller import ControllerConfig, correction_bandwidth, run_closed_loop
from fsolink.errors import ParameterError
from fsolink.field import GridSpec
from fsolink.turbulence import build_time_series, default_profile, synth_phase_screen

# every seeded call of the library, each reaching substream
SEEDED = {
    "build_time_series": lambda seed: next(build_time_series(
        default_profile(), grid=GridSpec(64, 0.64), n_frames=1, seed=seed)),
    "synth_phase_screen": lambda seed: synth_phase_screen(64, 0.01, 0.1, seed=seed),
    "run_closed_loop": lambda seed: run_closed_loop(
        np.ones((1, 2)), CombinerTopology(2), ControllerConfig(evals_per_frame=5), seed=seed),
    "correction_bandwidth": lambda seed: correction_bandwidth(
        0.0, 1.0, ControllerConfig(), seed=seed, n_periods=1, settle_periods=0),
    "monte_carlo_cumulated_ber": lambda seed: monte_carlo_cumulated_ber(
        np.full(2, -38.0), ReceiverModel(), bits_per_frame=10, seed=seed),
}


@pytest.mark.parametrize("seed", [-1, math.nan, 1.5, True, "3"],
                         ids=["negative", "nan", "fraction", "bool", "str"])
@pytest.mark.parametrize("caller", sorted(SEEDED))
def test_bad_seed_names_the_argument(caller, seed):
    with pytest.raises(ParameterError, match="seed"):
        SEEDED[caller](seed)


def test_integer_seeds_keep_their_streams():
    a = synth_phase_screen(64, 0.01, 0.1, seed=3).phase
    assert a.tobytes() == synth_phase_screen(64, 0.01, 0.1, seed=np.int64(3)).phase.tobytes()
    assert a.tobytes() != synth_phase_screen(64, 0.01, 0.1, seed=4).phase.tobytes()
