import re

import numpy as np
import pytest

from spintomo.states import maximally_mixed, pure_state, werner_state


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
