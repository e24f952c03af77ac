"""Exception types shared across the library."""

from __future__ import annotations


class DomainError(ValueError):
    """An argument falls outside the model's domain."""


class UnreachableTopologyError(RuntimeError):
    """Dissemination cannot cover the target node set on this graph."""


class ModelDegenerateError(ArithmeticError):
    """A closed-form bgp-degree collapsed below the finiteness floor.

    The approximate config-model degree recurrence can drive late steps
    to zero or below; evaluating the convergence-time sum there would be
    meaningless.  The offending (step, sdn_hit_step) pair is attached so
    callers can see where the approximation broke.
    """

    def __init__(self, step: int, sdn_hit_step: int, value: float):
        self.step = step
        self.sdn_hit_step = sdn_hit_step
        self.value = value
        super().__init__(
            f"closed-form bgp-degree degenerated at step i={step}, "
            f"x={sdn_hit_step}: value {value!r} is below the floor"
        )

    def __reduce__(self):
        # rebuilt from its attributes, so it crosses a process boundary
        return type(self), (self.step, self.sdn_hit_step, self.value)


# Errors that mean an input lies outside what the model can evaluate:
# the CLI exits 2 on them, and the sweep and grid drivers record them
# in-row (together with UnreachableTopologyError) and go on.
DOMAIN_ERRORS = (DomainError, ModelDegenerateError)
