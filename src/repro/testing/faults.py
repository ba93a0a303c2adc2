"""Injectable faults for hardening the parallel experiment runner.

Faults are declared in the :data:`FAULTS_ENV_VAR` environment variable
(which the runner's and the service's pool workers inherit), so the
production code path is exercised unchanged — no test-only branches in
the runner or the service beyond one :func:`hooked_task` block per task.

Directive grammar (semicolon-separated)::

    mode:target[:param][@attempts]

* ``mode`` — ``raise`` (worker raises :class:`~repro.errors.InjectedFault`),
  ``crash`` (worker hard-exits, failing the task it ran), ``timeout``
  (worker sleeps ``param`` seconds, default 30), or ``corrupt-memo``
  (every substrate produced by the memo cache is scaled by ``1 + param``,
  default 0.01 — drift the golden verifier must catch).
* ``target`` — an experiment id, or ``*`` for all.  For ``corrupt-memo``
  the target names a memoized substrate function (or ``*``).
* ``attempts`` — comma-separated 0-based attempt numbers the fault fires
  on (default ``*`` = every attempt).  ``crash:fig7@0`` crashes only the
  first attempt, so retry-with-reseed recovers.

Example::

    SUSTAINABLE_AI_FAULTS="crash:fig7@0;timeout:fig8:2.0" \
        sustainable-ai verify --jobs 4 --retries 1 --timeout 1
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core import memo
from repro.errors import InjectedFault

#: Environment variable holding the fault plan.
FAULTS_ENV_VAR = "SUSTAINABLE_AI_FAULTS"

#: Process exit status used by ``crash`` faults (mirrors SIGKILL's 128+9
#: convention closely enough to be recognizable in worker post-mortems).
CRASH_EXIT_STATUS = 137

_MODES = ("raise", "crash", "timeout", "corrupt-memo")
_DEFAULT_PARAMS = {"timeout": 30.0, "corrupt-memo": 0.01}


@dataclass(frozen=True)
class Fault:
    """One parsed fault directive."""

    mode: str
    target: str
    param: float
    attempts: tuple[int, ...] | None  # None = every attempt

    def matches(self, target: str, attempt: int) -> bool:
        """Whether this fault fires for ``target`` on 0-based ``attempt``."""
        if self.target not in ("*", target):
            return False
        return self.attempts is None or attempt in self.attempts


@dataclass(frozen=True)
class FaultPlan:
    """The full set of active fault directives."""

    faults: tuple[Fault, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.faults)

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse a semicolon-separated directive string."""
        faults = []
        for directive in spec.split(";"):
            directive = directive.strip()
            if directive:
                faults.append(_parse_directive(directive))
        return cls(tuple(faults))

    @classmethod
    def from_env(cls) -> "FaultPlan":
        """The plan declared in :data:`FAULTS_ENV_VAR` (empty if unset)."""
        return cls.from_spec(os.environ.get(FAULTS_ENV_VAR, ""))

    def first_match(self, mode: str, target: str, attempt: int) -> Fault | None:
        """First directive of ``mode`` firing for (target, attempt)."""
        for fault in self.faults:
            if fault.mode == mode and fault.matches(target, attempt):
                return fault
        return None


def _parse_directive(directive: str) -> Fault:
    body, _, attempts_part = directive.partition("@")
    parts = body.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(
            f"bad fault directive {directive!r}; expected mode:target[:param][@attempts]"
        )
    mode, target = parts[0].strip(), parts[1].strip()
    if mode not in _MODES:
        raise ValueError(f"unknown fault mode {mode!r}; known: {', '.join(_MODES)}")
    if not target:
        raise ValueError(f"fault directive {directive!r} has an empty target")
    param = _DEFAULT_PARAMS.get(mode, 0.0)
    if len(parts) == 3:
        param = float(parts[2])
    attempts: tuple[int, ...] | None = None
    if attempts_part.strip() not in ("", "*"):
        attempts = tuple(int(a) for a in attempts_part.split(","))
    return Fault(mode=mode, target=target, param=param, attempts=attempts)


@contextlib.contextmanager
def hooked_task(
    target: str, attempt: int, in_worker: bool
) -> Iterator[memo.SubstrateCollector]:
    """The body of every worker task: fire the fault hooks, then collect.

    The runner's experiments and the service's queries and sweep chunks
    run in this block.  The hooks fire before the collector opens, so a
    task timed inside the block never counts a ``timeout`` fault's sleep.
    ``in_worker=False`` downgrades ``crash`` to ``raise`` so an in-process
    caller survives.
    """
    install_memo_corruption()
    inject(target, attempt, hard_exit=in_worker)
    with memo.collect_substrates() as collector:
        yield collector


def inject(experiment_id: str, attempt: int = 0, hard_exit: bool = True) -> None:
    """Fire any env-declared fault for this task execution.

    Called by :func:`hooked_task` before the task runs.  ``hard_exit=False``
    (an in-process task) downgrades ``crash`` to ``raise`` so the calling
    process itself survives.
    """
    plan = FaultPlan.from_env()
    if not plan:
        return
    fault = plan.first_match("crash", experiment_id, attempt)
    if fault is not None:
        if hard_exit:
            os._exit(CRASH_EXIT_STATUS)
        raise InjectedFault(
            f"injected crash for {experiment_id} (attempt {attempt})"
        )
    fault = plan.first_match("timeout", experiment_id, attempt)
    if fault is not None:
        time.sleep(fault.param)
    fault = plan.first_match("raise", experiment_id, attempt)
    if fault is not None:
        raise InjectedFault(
            f"injected failure for {experiment_id} (attempt {attempt})"
        )


def _corrupt(value: object, epsilon: float) -> object:
    """Rebuild ``value`` with every reachable float array perturbed.

    The perturbation alternates ``1+eps, 1-eps, ...`` element-wise rather
    than scaling uniformly: many of the paper's headline metrics are
    ratios that are *provably invariant* under uniform scaling (see the
    ``saving-invariant-under-intensity-scaling`` invariant), so a uniform
    corruption would cancel out instead of surfacing as golden drift.
    """
    if isinstance(value, np.ndarray):
        if np.issubdtype(value.dtype, np.floating):
            arr = np.asarray(value)
            signs = np.where(np.arange(arr.size) % 2 == 0, 1.0, -1.0)
            return arr * (1.0 + epsilon * signs.reshape(arr.shape))
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        changes = {}
        for field in dataclasses.fields(value):
            original = getattr(value, field.name)
            corrupted = _corrupt(original, epsilon)
            if corrupted is not original:
                changes[field.name] = corrupted
        return dataclasses.replace(value, **changes) if changes else value
    if isinstance(value, tuple):
        return tuple(_corrupt(item, epsilon) for item in value)
    if isinstance(value, list):
        return [_corrupt(item, epsilon) for item in value]
    return value


def install_memo_corruption() -> bool:
    """Install the env-declared ``corrupt-memo`` hook into the memo cache.

    Returns True when a corruptor was installed.  Idempotent; clears any
    previous hook when no corrupt-memo directive is active.
    """
    plan = FaultPlan.from_env()
    directives = [f for f in plan.faults if f.mode == "corrupt-memo"]
    if not directives:
        memo.set_substrate_corruptor(None)
        return False

    def corruptor(qualname: str, value: object) -> object:
        for fault in directives:
            if fault.target in ("*", qualname):
                return _corrupt(value, fault.param)
        return value

    memo.set_substrate_corruptor(corruptor)
    return True
