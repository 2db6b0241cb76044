"""Expected answers (``oracle.json``) and the check of one response.

``oracle.json`` is written by ``make_oracle.py`` on a path other than
the one that serves the benchmark: the ``w`` inference engine for types
and the ``compiled`` evaluation engine for values and costs, while the
service runs its defaults.  It holds:

* ``programs`` -- ``{name: source}``, the benchmark's committed corpus;
* ``typecheck`` -- ``{name: answer}`` for ``/v1/typecheck``;
* ``run`` -- ``{"name@p": answer}`` for ``/v1/run``;
* ``g`` -- the service's default BSP ``g`` the costs were priced with.

An answer is ``{"status": 200, ...fields}`` or ``{"status": 422,
"kind": ...}``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional

ORACLE_PATH = Path(__file__).resolve().parent / "oracle.json"

TYPE_FIELDS = ("type", "constraints", "scheme")
RUN_FIELDS = ("type", "constraints", "value")
COST_FIELDS = ("W", "H", "S")


def load_oracle() -> Dict[str, Any]:
    return json.loads(ORACLE_PATH.read_text())


def expected(oracle: Dict[str, Any], endpoint: str, key: str) -> Dict[str, Any]:
    table = oracle["run"] if endpoint == "/v1/run" else oracle["typecheck"]
    return table[key]


def check(
    oracle: Dict[str, Any],
    endpoint: str,
    key: str,
    l: Optional[float],
    status: int,
    data: bytes,
) -> Optional[str]:
    """``None`` when the response is the expected one, else the kind of
    the first difference (``status-<code>``, ``body``, a field name,
    ``cost``)."""
    answer = expected(oracle, endpoint, key)
    if status != answer["status"]:
        return f"status-{status}"
    try:
        body = json.loads(data)
    except ValueError:
        return "body"
    if status != 200:
        error = body.get("error") or {}
        return None if error.get("kind") == answer["kind"] else "error-kind"
    fields = RUN_FIELDS if endpoint == "/v1/run" else TYPE_FIELDS
    for name in fields:
        if body.get(name) != answer[name]:
            return name
    if endpoint == "/v1/run":
        cost = body.get("cost") or {}
        if any(cost.get(name) != answer[name] for name in COST_FIELDS):
            return "cost"
        g = oracle["g"]
        total = answer["W"] + answer["H"] * g + answer["S"] * l
        if cost.get("g") != g or cost.get("l") != l or cost.get("total") != total:
            return "cost"
    return None
