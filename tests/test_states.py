import re

import numpy as np
import pytest

from spintomo.linalg import random_density
from spintomo.states import ghz_state, maximally_mixed, pure_state, werner_state


class TestRefusals:
    """Refusals that no other test reaches, each through its public entry point."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: pure_state(np.zeros(2)), "state vector must be nonzero"),
            (lambda: werner_state(1.5), "q must lie in [0, 1]"),
        ],
        ids=["zero_vector", "werner_q_above_1"],
    )
    def test_refusal_message(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_maximally_mixed_checks_its_bytes_before_allocating(self):
        # a dimension of 2**64, with its product taken exactly
        message = r"^the maximally mixed state of dimension 18446744073709551616 would allocate"
        with pytest.raises(ValueError, match=message):
            maximally_mixed((2**32, 2**32))

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: ghz_state(35), "the GHZ state of 35 qubits would allocate about 1.89e+13 GB"),
            (lambda: ghz_state(64), "the GHZ state of 64 qubits would allocate about 5.44e+30 GB"),
            (lambda: random_density(10**6, 1, 0),
             "the random density matrix of dimension 1000000 would allocate about 1.6e+04 GB"),
        ],
        ids=["ghz_35", "ghz_64", "random_density_1e6"],
    )
    def test_builders_check_their_bytes_before_allocating(self, call, message):
        # 2**64 amplitudes once ended in numpy's own dimension error, and 2**35 were allocated
        with pytest.raises(ValueError, match=f"^{re.escape(message)}, above the budget of 1.07 GB$"):
            call()
