"""Exception types and the limits of every numerical refusal.

Plain ``ValueError`` is used for ordinary domain errors (bad shapes, invalid
parameters).  The classes below exist where callers need to distinguish the
failure mode programmatically, e.g. for CLI exit codes.

``LIMITS`` is the one table of the roundoff limits up to which the package
accepts a state, a tomogram, a channel or a measurement as meeting its
axioms, of the imaginary part that a tomogram file leaves out, and of the
byte budget.  Every refusal against a limit goes through
``check``, and every verdict or floor reads its limit from the table.  Two
sites share an entry only when they check the same invariant.  This module
imports nothing, so every module can import it.
"""

LIMITS = {
    # density matrices: |rho - rho^dag|, |Tr rho - 1| and -lambda_min
    "state_hermitian": 1e-12,
    "state_trace": 1e-12,
    "state_psd": 1e-10,
    # |H - H^dag| of a matrix that eig_hermitian or expm_hermitian_times diagonalizes
    "hermitian": 1e-10,
    # tomogram tables: imaginary parts, negative entries (clamped to 0 within
    # the limit) and |sum over outcomes - 1| per frame
    "tomogram_real": 1e-10,
    "tomogram_negative": 1e-12,
    "tomogram_sum": 1e-10,
    # one distribution of the entropy functions: negative entries and |sum - 1|
    "distribution_negative": 1e-10,
    "distribution_sum": 1e-10,
    # simplex points: negative coordinates, |row sum - 1|, and the eigenvalue bounds
    "simplex": 1e-10,
    # max |sum V^dag V - 1| of a Kraus set, and of a POVM's effects
    "completeness": 1e-10,
    # a measurement effect: |P - P^dag| and -lambda_min
    "effect": 1e-10,
    # the smallest outcome probability that measure_update normalizes by
    "zero_probability": 1e-14,
    # | |n| - 1 | of a rotation axis
    "unit_axis": 1e-10,
    # imaginary part of the channel propagator's basis coupling
    "propagator_real": 1e-10,
    # | |c0|^2 + |c1|^2 - 1 | of an entangled ray, and the smallest |c|^2 its identities divide by
    "ray_norm": 1e-10,
    "ray_degenerate": 1e-12,
    # the largest imaginary part of a tomogram table that its JSON object leaves out;
    # above it the object carries the imaginary parts as "values_im"
    "values_im": 1e-12,
    # imaginary part of Tr[rho^n] from a spin symbol
    "trace_real": 1e-8,
    # max |u^dag u - 1| over a set of unitary frames
    "unitary": 1e-8,
    # a Peres violation above this witnesses the state
    "witness": 1e-8,
    # the slack below 0 up to which a subadditivity inequality holds
    "subadditivity": 1e-10,
    # Bytes that one dense result, or the main arrays of one CLI run, may take (1 GiB).
    # A dense channel propagator is 0.73 GB at 2j = 16 on the default grid and 3.9 GB
    # at oversample 1.5, and numpy overcommits, so an oversized request is refused from
    # its estimate before any allocation rather than left to the kernel's OOM killer.
    "bytes": 2**30,
}


def check(name: str, residual, message: str, *args, error: type = ValueError) -> None:
    """Raise ``error(message.format(*args))`` unless ``residual <= LIMITS[name]``.

    A NaN residual is refused.  The message is formatted only on refusal.
    """
    if not residual <= LIMITS[name]:
        raise error(message.format(*args))


class InformationallyIncompleteError(ValueError):
    """Frame set does not determine the state; carries the numerical rank.

    The message also names ``complete``, the smallest generic set of frames of
    the same kind that does determine it.
    """

    def __init__(self, rank: int, needed: int, complete: str):
        self.rank = rank
        self.needed = needed
        super().__init__(
            f"informationally incomplete frame set: rank {rank} < {needed}; a generic set of {complete} is complete"
        )


class InvalidChannelError(ValueError):
    """Kraus operators violate the completeness relation."""


class ZeroProbabilityError(ValueError):
    """Measurement outcome has (numerically) zero probability."""


class DegeneratePointError(ValueError):
    """Geometric check is undefined at this point (division by zero case)."""
