"""Seeded serve payloads and the byte-exact expected responses.

Payloads are built the way ``repro.serve.loadgen.serving_corpus`` builds
them: lint-clean generated models serialized to inline PSDF/PSM XML.  A
payload is made distinct by giving its application a unique name, so
every one is a separate model the server must load, check and compute
from scratch.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

import numpy as np

#: served job mix: (kind, engine or None for "omitted"), with weights
JOB_MIX: Tuple[Tuple[Tuple[str, Optional[str]], float], ...] = (
    (("emulate", None), 0.2),
    (("emulate", "fast"), 0.2),
    (("emulate", "batch"), 0.2),
    (("estimate", None), 0.3),
    (("lint", None), 0.1),
)


class ModelPool:
    """Generated lint-clean models as XML templates, renamed per payload."""

    def __init__(self, count: int, base_seed: int) -> None:
        from repro.testing.generators import generate_models
        from repro.xmlio.psdf_writer import psdf_to_xml
        from repro.xmlio.psm_writer import psm_to_xml

        self.templates: List[Tuple[str, str, str]] = []
        for model in generate_models(count, base_seed=base_seed):
            name = model.application.name
            psdf = psdf_to_xml(model.application, model.platform.package_size)
            if psdf.count(f'"{name}"') != 3:
                raise RuntimeError(f"unexpected PSDF layout for {name}")
            self.templates.append((name, psdf, psm_to_xml(model.platform)))

    def payload(self, index: int, tag: str, kind: str,
                engine: Optional[str]) -> Dict[str, object]:
        name, psdf, psm = self.templates[index % len(self.templates)]
        body: Dict[str, object] = {
            "kind": kind,
            "psdf_xml": psdf.replace(f'"{name}"', f'"{name}_{tag}"'),
            "psm_xml": psm,
        }
        if engine is not None:
            body["engine"] = engine
        return body


def draw_mix(rng: np.random.Generator, count: int) -> List[Tuple[str, Optional[str]]]:
    kinds = [entry[0] for entry in JOB_MIX]
    weights = np.array([entry[1] for entry in JOB_MIX])
    picks = rng.choice(len(kinds), size=count, p=weights / weights.sum())
    return [kinds[i] for i in picks]


def unique_payloads(pool: ModelPool, rng: np.random.Generator, count: int,
                    tag: str) -> List[Dict[str, object]]:
    """``count`` distinct payloads over the pool with the served job mix."""
    mix = draw_mix(rng, count)
    bases = rng.integers(0, len(pool.templates), size=count)
    return [
        pool.payload(int(bases[i]), f"{tag}{i}", kind, engine)
        for i, (kind, engine) in enumerate(mix)
    ]


def encode(payload: Dict[str, object]) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def expected_bytes(payload_bytes: bytes) -> bytes:
    """What a correct server answers: the library's own response bytes."""
    from repro.serve.jobs import execute_job, parse_job, response_bytes

    return response_bytes(execute_job(parse_job(json.loads(payload_bytes))))
