"""Hardening an execution environment against access failures.

:func:`harden` is the one-call entry point used by the service, the CLI,
tests, and benchmarks, for binary and n-ary executes alike: it wraps
every database an :class:`~repro.optimizer.binder.ExecutionEnvironment`
binds in a deterministic fault injector (when a fault profile is given)
and installs a shared :class:`~repro.robustness.context.ResilienceContext`
that the whole execution stack — retrieval strategies, query probes, join
executors, the adaptive optimizer — consults on every database access.

Each relation's injector draws from its own sub-seed, so the databases
do not fail in lockstep: the relation at position ``i`` of the sorted
relation keys gets ``seed * n + i`` for ``n`` bound relations (sides 1
and 2 of a binary task get ``seed * 2`` and ``seed * 2 + 1``).

With ``profile=None`` (or a disabled profile) the databases are left
untouched; the environment still gets a fresh context.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from .context import ResilienceContext
from .faults import FaultInjectingDatabase, FaultProfile
from .retry import RetryPolicy


def harden(
    environment,
    profile: Optional[FaultProfile] = None,
    policy: Optional[RetryPolicy] = None,
    failure_threshold: int = 5,
    cooldown: int = 20,
    recovery_successes: int = 2,
):
    """A copy of *environment* with fault injection and resilience wired in.

    Returns the hardened environment; its ``resilience`` attribute holds
    the shared context (for reports), and its databases are
    :class:`FaultInjectingDatabase` wrappers when *profile* injects
    anything.  The original environment is not modified.
    """
    context = ResilienceContext(
        policy=policy,
        failure_threshold=failure_threshold,
        cooldown=cooldown,
        recovery_successes=recovery_successes,
    )
    if environment.observability is not None:
        context.observability = environment.observability
    if profile is None or profile.disabled:
        return dataclasses.replace(environment, resilience=context)
    databases = {}
    keys = sorted(environment.databases)
    for offset, key in enumerate(keys):
        injector = FaultInjectingDatabase(
            environment.databases[key],
            dataclasses.replace(profile, seed=profile.seed * len(keys) + offset),
        )
        context.attach_injector(injector)
        databases[key] = injector
    return dataclasses.replace(
        environment, databases=databases, resilience=context
    )
