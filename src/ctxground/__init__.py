"""Contextual phrase grounding at desk scale.

Two transformer encoder branches (text tokens with learned positions,
detector RoI features with an optional spatial embedding) feed a
cross-modal attention head that scores every phrase against every
region; training uses per-entity mean binary cross entropy so one
phrase can match several regions. Everything runs on an internal
reverse-mode autodiff engine and is verified by gradient checks,
invariant suites, and synthetic-data overfitting.
"""

__version__ = "0.1.0"
