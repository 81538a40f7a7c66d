"""Every documented validation ``raise`` of the library, one input each: the
exception's exact type and a fragment of its message."""

import numpy as np
import pytest

from memloss import coupling, errors, maps, partitions, transfer
from memloss import sequences as seqs
from memloss.errors import ConfigError, DepthError, HorizonError, ParamError
from memloss.tables import TailTable

_LSV = maps.lsv(0.5)


def _model(n_rows=64, depth=256, horizon=20, r=None):
    fam = coupling.synthetic_poly_family(2.0, n_rows=n_rows, depth=depth)
    if r is not None:  # the same rows over a measure tail r of these values
        fam = coupling.TailFamily(k=1, r=TailTable(values=r, label="r"), h_rows=fam.h_rows, beta=2.0,
                                  beta_prime=2.0, c_beta=1.0, c_beta_prime=1.0, theta_seq=fam.theta_seq)
    return coupling.CouplingModel(fam, coupling.make_constants(), horizon)


def _family(h_rows, r, theta_seq):
    return coupling.TailFamily(k=1, r=TailTable(values=r, label="r"), h_rows=h_rows, beta=2.0, beta_prime=2.0,
                               c_beta=1.0, c_beta_prime=1.0, theta_seq=theta_seq)


_UNIT_ROWS = np.array([[1.0, 0.0, 0.0]] * 3)

_CASES = {
    "coupling-n0": (lambda: coupling.make_constants(n0=-1), ParamError, "n0 must be >= 0"),
    "coupling-delta0": (lambda: coupling.make_constants(delta0=0.0), ParamError, "delta0 must lie in (0, 1]"),
    "coupling-negative-tail": (lambda: coupling.hat_envelope(np.array([0.5, -0.1])), ParamError,
                               "tails must be nonnegative"),
    "coupling-theta-per-row": (lambda: _family(_UNIT_ROWS, [1.0, 0.5], np.zeros(2)), ParamError,
                               "theta_seq must give one value per tail row"),
    "coupling-r-bound": (lambda: _family(_UNIT_ROWS, [1.0, 1.0, 1.0], np.zeros(3)), ParamError,
                         "declared bound violated by the measure tail r"),
    "coupling-alpha-depth": (lambda: coupling.alpha_weights(coupling.hat_envelope(np.array([1.0, 0.5])), 1, 10),
                             DepthError, "rhat tabulated to 2, need 10"),
    "coupling-alpha-rising": (lambda: coupling.alpha_weights(TailTable(values=[1.0, 1.0, 0.5, 0.9], label="x"),
                                                             1, 3), ParamError, "rhat is not nonincreasing"),
    "coupling-horizon-0": (lambda: _model(horizon=0), ParamError, "horizon must be >= 1"),
    "coupling-horizon-rows": (lambda: _model(n_rows=10), HorizonError, "family has 10 tail rows, horizon 20"),
    "coupling-horizon-depth": (lambda: _model(depth=10), HorizonError, "family depth 10 < horizon + 1 = 21"),
    "coupling-horizon-r": (lambda: _model(r=[1.0, 1.0, 0.25]), HorizonError,
                           "measure tail r is tabulated too shallow"),
    "coupling-mc-samples": (lambda: coupling.s_tail_mc(_model(), 10, 9999, 1), ParamError,
                            "samples must be >= 10**4"),
    "errors-not-an-object": (lambda: errors.check_config([0.5], {}, "sequence config"), ConfigError,
                             "sequence config must be a JSON object"),
    "maps-cui-beta": (lambda: maps.cui(0.5, 0.5), ParamError, "beta must be >= 1, got 0.5"),
    "maps-family": (lambda: maps.validate_params(maps.MapParams("tent", 0.5)), ParamError,
                    "unknown family 'tent'"),
    "partitions-pikovsky": (lambda: partitions.pikovsky_endpoints(seqs.constant(_LSV), 1, 10), ParamError,
                            "pikovsky_endpoints needs a Pikovsky sequence"),
    "partitions-mc-samples": (lambda: partitions.return_time_tail_mc(seqs.constant(_LSV), 1, 10, 999, 1),
                              ParamError, "samples must be >= 1000"),
    "sequences-empty": (lambda: seqs.periodic([]), ParamError, "a sequence needs at least one entry"),
    "sequences-probs": (lambda: seqs.iid([_LSV, maps.lsv(0.3)], [1.0], 1), ParamError,
                        "probs must match the support length"),
    "sequences-transition": (lambda: seqs.markov([_LSV, maps.lsv(0.3)], [[1.0]], 1), ParamError,
                             "transition matrix shape must match the support"),
    "sequences-length": (lambda: seqs.gammas(seqs.constant(_LSV), 1, -1), ParamError, "length must be >= 0"),
    "sequences-b": (lambda: seqs.theta_profile(seqs.constant(_LSV), 0.4, 0.0, 10), ParamError,
                    "b must lie in (0, 1]"),
    "sequences-cui-beta": (lambda: seqs.sequence_from_config({"kind": "periodic", "family": "cui",
                                                              "cycle": [{"gamma": 0.5}]}),
                           ConfigError, "is missing key 'beta'"),
    "sequences-frequency-n-max": (lambda: seqs.check_frequency(seqs.constant(_LSV), 0.5, 9), ParamError,
                                  "n_max must be >= 10"),
    "sequences-family": (lambda: seqs.sequence_from_config({"kind": "periodic", "family": "tent", "cycle": [0.5]}),
                         ConfigError, "missing or has invalid key 'tent'"),
    "sequences-kind": (lambda: seqs.sequence_from_config({"kind": "other", "family": "lsv", "cycle": [0.5]}),
                       ConfigError, "unknown sequence kind 'other'"),
    "tables-short": (lambda: TailTable(values=[1.0]), ParamError, "1-D value array with >= 2 entries"),
    "transfer-cone-interval": (lambda: transfer.make_density("cone", 1024, (0.0, 2.0)), ParamError,
                               "cone densities live on (0, 1]"),
    "transfer-cone-beta": (lambda: transfer.make_density("cone", 1024, beta=1.0), ParamError,
                           "cone exponent beta must lie in (0, 1)"),
    "transfer-evolve-n": (lambda: transfer.evolve(seqs.constant(_LSV), transfer.make_density("uniform", 1024),
                                                  -1), ParamError, "n must be >= 0"),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_invalid_input_raises_its_documented_error(case):
    call, exc, fragment = _CASES[case]
    with pytest.raises(exc) as info:
        call()
    assert info.type is exc
    assert fragment in str(info.value)
