"""Compatibility stub: the runtime race detector has been removed.

Concurrency discipline is checked statically by the lint rules
IOL008–IOL010 over the registry in :mod:`repro.lint.shared` (see
``docs/lint.md``); schedule perturbation is the scenario campaign's
``shuffled`` axis.  Only :mod:`repro.races.runtime` remains, for the
one external reader named there.
"""
