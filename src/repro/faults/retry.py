"""Client-side RPC retry policy: timeout, attempts, backoff, jitter.

Models the Lustre client's recovery behaviour at the level the paper's
timing model cares about: a lost RPC costs the client one timeout, then
an exponentially growing backoff delay before the next attempt.  The
jitter is drawn from a dedicated deterministic RNG stream (one per OST,
owned by the injector) so that retried runs are bit-reproducible and
adding retry consumers does not perturb any other stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigError


@dataclass(frozen=True)
class RetryPolicy:
    """How the client responds to a lost RPC.

    ``max_attempts=1`` is "no retry": the first loss raises
    :class:`~repro.errors.FaultExhaustedError`.  Delay before attempt
    ``k+1`` (after ``k`` failures) is
    ``timeout + backoff_base * backoff_factor**(k-1) * (1 + jitter*u)``
    with ``u`` uniform in [0, 1).
    """

    max_attempts: int = 8
    #: seconds the client waits before declaring one RPC lost
    timeout: float = 5e-3
    #: first backoff delay, seconds
    backoff_base: float = 2e-3
    #: multiplicative growth per failure
    backoff_factor: float = 2.0
    #: relative jitter amplitude on each backoff delay
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(
                f"retry max_attempts must be >= 1, got {self.max_attempts}")
        if self.timeout <= 0:
            raise ConfigError(
                f"retry timeout must be > 0, got {self.timeout}")
        if self.backoff_base < 0:
            raise ConfigError(
                f"retry backoff_base must be >= 0, got {self.backoff_base}")
        if self.backoff_factor < 1.0:
            raise ConfigError(
                f"retry backoff_factor must be >= 1, got {self.backoff_factor}")
        if self.jitter < 0:
            raise ConfigError(
                f"retry jitter must be >= 0, got {self.jitter}")

    def backoff_delay(self, failures: int, rng: Any) -> float:
        """Delay before the next attempt after ``failures`` >= 1 losses.

        ``rng`` is a numpy Generator; it is consulted only when jitter is
        configured, so jitter=0 policies consume no randomness.
        """
        delay = self.backoff_base * self.backoff_factor ** (failures - 1)
        if self.jitter > 0.0 and delay > 0.0:
            delay *= 1.0 + self.jitter * float(rng.random())
        return delay
