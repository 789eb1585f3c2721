import re

import numpy as np
import pytest

from spintomo.states import pure_state, werner_state


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
