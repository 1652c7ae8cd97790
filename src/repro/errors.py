"""Exception hierarchy for the repro package.

Every error raised by the framework derives from :class:`MicroProbeError`
so callers can catch framework failures without masking programming
errors (``TypeError``, ``KeyError`` from unrelated code, and so on).
"""

from __future__ import annotations


class MicroProbeError(Exception):
    """Base class for all errors raised by the framework."""


#: Friendly alias: callers catch ``ReproError`` to mean "any error this
#: framework raises" without reaching for the historical class name.
ReproError = MicroProbeError


class DefinitionError(MicroProbeError):
    """A textual ISA or micro-architecture definition file is invalid."""

    def __init__(self, path: str, line_number: int, message: str) -> None:
        self.path = path
        self.line_number = line_number
        super().__init__(f"{path}:{line_number}: {message}")


class UnknownInstructionError(MicroProbeError):
    """An instruction mnemonic is not present in the loaded ISA."""

    def __init__(self, mnemonic: str) -> None:
        self.mnemonic = mnemonic
        super().__init__(f"unknown instruction: {mnemonic!r}")


class UnknownArchitectureError(MicroProbeError):
    """A requested architecture name has no registered definition."""

    def __init__(self, name: str, known: tuple[str, ...]) -> None:
        self.name = name
        self.known = known
        super().__init__(
            f"unknown architecture {name!r}; known architectures: {', '.join(known)}"
        )


class PassError(MicroProbeError):
    """A code-generation pass could not be applied to the program IR."""


class SynthesisError(MicroProbeError):
    """The synthesizer could not produce a valid micro-benchmark."""


class CacheModelError(MicroProbeError):
    """The analytical cache model cannot satisfy a requested distribution."""


class SearchError(MicroProbeError):
    """A design-space exploration failed or was misconfigured."""


class MeasurementError(MicroProbeError):
    """The measurement harness was used incorrectly."""


class SettingError(MicroProbeError, ValueError):
    """A ``REPRO_*`` environment knob holds a value that cannot be used.

    The message names the variable and the offending value; the CLI
    reports it as a usage error (exit status 2).
    """


class ServiceError(MicroProbeError):
    """A campaign-service request cannot be served.

    Carries the HTTP status the service handler should answer with;
    raised before any response bytes stream, so clients always get a
    clean error document rather than a truncated result stream.

    ``retry_after`` (seconds) is set on backpressure responses --
    admission-control 429s and drain-time 503s -- and rendered as the
    HTTP ``Retry-After`` header; clients with retry budget left sleep
    that long before resubmitting.  :attr:`transient` is the client's
    retry predicate: true exactly for connection/transport failures and
    the backpressure statuses, never for plan errors (a malformed plan
    stays malformed however often it is retried).
    """

    def __init__(
        self,
        message: str,
        status: int = 400,
        retry_after: float | None = None,
    ) -> None:
        self.status = status
        self.retry_after = retry_after
        super().__init__(message)

    @property
    def transient(self) -> bool:
        return self.status in (429, 503)


class PlanValidationError(MicroProbeError):
    """An experiment plan asks for configurations the chip cannot run.

    Raised at plan-build/plan-submit time -- before any cell is
    measured -- so a bad ``MachineConfig`` or :class:`ChipTopology`
    fails fast with a clear message instead of surfacing as a deep
    failure in the middle of a campaign.
    """


class ModelingError(MicroProbeError):
    """Power-model training or application failed."""


class FaultInjectedError(MicroProbeError):
    """A deterministic injected fault fired (chaos testing only).

    Raised by the ``poison`` fault site of
    :mod:`repro.exec.faults`; never raised in production runs.
    """


class ExecutionError(MicroProbeError):
    """A plan finished executing with quarantined cells.

    Raised by :meth:`~repro.exec.report.ExecutionReport.require_complete`
    -- the list-returning ``run()`` convenience of the executors -- when
    retries *and* the degraded in-process fallback could not measure
    every cell.  Carries the full :class:`~repro.exec.report.ExecutionReport`
    as :attr:`report`, so callers can still consume the partial results
    and the structured per-cell failures.
    """

    def __init__(self, report) -> None:
        self.report = report
        failures = report.failures
        preview = "; ".join(
            f"{failure.workload_name} on {failure.config_label} "
            f"({failure.kind} after {failure.attempts} attempts)"
            for failure in failures[:3]
        )
        if len(failures) > 3:
            preview += f"; ... {len(failures) - 3} more"
        super().__init__(
            f"{len(failures)} of {len(report.measurements)} cells "
            f"quarantined: {preview}"
        )
