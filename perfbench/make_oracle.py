"""Regenerate ``oracle.json``, the benchmark's corpus and expected answers.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/make_oracle.py

Answers come from a :class:`ServiceCore` configured off the serving
path -- the ``w`` inference engine (the executable transcription of the
paper's rules) and the ``compiled`` evaluation engine -- so a defect in
the defaults the benchmark measures (``uf``, ``tree``) shows up as a
mismatch.  Takes about two minutes, mostly ``w`` on the large shapes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict

from oracle import COST_FIELDS, ORACLE_PATH, RUN_FIELDS, TYPE_FIELDS
from workloads import (
    DEEP_P,
    FILL,
    MIX_P,
    SHIPPED,
    WIDE,
    WIDE_P,
    mix_programs,
    run_key,
    shape_programs,
    with_nonce,
)

from repro.service.handlers import RequestError, ServiceConfig, ServiceCore
from repro.testing.generators import unsafe_corpus, well_typed_corpus


def _answer(core: ServiceCore, endpoint: str, payload: Dict[str, Any]) -> Dict[str, Any]:
    handler = core.handle_run if endpoint == "/v1/run" else core.handle_typecheck
    try:
        status, body, _ = handler(payload)
    except RequestError as error:
        return {"status": error.status, "kind": error.kind}
    data = json.loads(body)
    if endpoint == "/v1/typecheck":
        return {"status": status, **{name: data[name] for name in TYPE_FIELDS}}
    answer = {"status": status, **{name: data[name] for name in RUN_FIELDS}}
    answer.update({name: data["cost"][name] for name in COST_FIELDS})
    return answer


def main() -> int:
    config = ServiceConfig(engine="compiled", infer_engine="w", trace_summaries=False)
    core = ServiceCore(config)
    programs: Dict[str, str] = {
        name: (Path("programs") / f"{name}.bsml").read_text() for name in SHIPPED
    }
    programs.update(
        (f"typed.{index:02d}", source) for index, source in enumerate(well_typed_corpus())
    )
    programs.update(
        (f"unsafe.{index:02d}", source) for index, source in enumerate(unsafe_corpus())
    )
    programs[FILL] = "0"
    oracle: Dict[str, Any] = {"g": config.g, "programs": programs, "typecheck": {}, "run": {}}

    typechecked = {**{name: programs[name] for name in mix_programs(oracle)}, FILL: "0"}
    typechecked.update(shape_programs())
    for name, source in typechecked.items():
        answers = [
            _answer(core, "/v1/typecheck", {"program": text})
            for text in (source, with_nonce(source, 0), with_nonce(source, 12345))
        ]
        # The nonce must change the cache key and nothing else.
        if any(answer != answers[0] for answer in answers):
            raise SystemExit(f"{name}: the nonce binding changes the answer")
        oracle["typecheck"][name] = answers[0]
        print(f"typecheck {name}: {answers[0]['status']}", file=sys.stderr)

    runs = [(name, MIX_P) for name in mix_programs(oracle)]
    runs += [(name, DEEP_P) for name in SHIPPED]
    runs += [(name, WIDE_P) for name in WIDE]
    for name, p in runs:
        answer = _answer(core, "/v1/run", {"program": programs[name], "p": p})
        oracle["run"][run_key(name, p)] = answer
        print(f"run {name}@{p}: {answer['status']}", file=sys.stderr)

    unexpected = [
        key
        for table in ("typecheck", "run")
        for key, answer in oracle[table].items()
        if (answer["status"] == 200) == key.startswith("unsafe.")
    ]
    if unexpected:
        raise SystemExit(f"unexpected verdicts: {unexpected}")
    ORACLE_PATH.write_text(json.dumps(oracle, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
