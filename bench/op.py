"""The unit of work a workload hands to the closed loop."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Op:
    """One call into statediv and the check of its result.

    ``fn`` is timed; ``check`` runs after the clock stops and compares the
    result with a reference computed before the loop started.  ``span`` is the
    name of the op's root span in a traced run.  Ops of a lower ``stage`` run
    first in every pass; a pass runs an op only after the ops it reads from.
    """

    name: str
    span: str
    fn: Callable[[], Any]
    check: Callable[[Any], bool]
    tags: dict = field(default_factory=dict)
    stage: int = 0
