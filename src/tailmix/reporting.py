"""Deterministic JSON reports with embedded run manifests.

Reports are canonical: keys sorted, tight separators, no timestamps, so
rerunning the same command on the same inputs writes identical bytes.
Wall-clock numbers go to a separate runtime sidecar that is not part of
the canonical report.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .fit import FittedModel
from .select import SelectionResult


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a run, embedded in its report."""

    subcommand: str
    seed: int
    config: dict
    inputs: tuple = ()

    def to_dict(self) -> dict:
        return {"tool": "tailmix", "version": __version__, **asdict(self)}


def describe_input(path) -> dict:
    """Path plus content hash, so the manifest pins what was read."""
    path = Path(path)
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return {"path": path.name, "sha256": h.hexdigest()}


def jsonable(obj):
    """Coerce report structures to plain JSON types.

    Numpy scalars become Python scalars; non-finite floats become their
    repr strings, since canonical JSON refuses NaN and infinities.
    """
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    return obj


def canonical_json(report: dict) -> str:
    return json.dumps(jsonable(report), sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def build_report(manifest: RunManifest, results) -> dict:
    """A report of manifest's subcommand; docs/report-schema.json lists
    the kinds."""
    return {"kind": manifest.subcommand, "manifest": manifest.to_dict(),
            "results": results}


def write_report(path, report: dict) -> None:
    Path(path).write_text(canonical_json(report) + "\n", encoding="utf-8")


def serialize_fitted(model: FittedModel) -> dict:
    return {
        "model": model.spec.label,
        "x_min": model.spec.x_min,
        "exp_mode": model.spec.exp_mode,
        "dof": model.spec.dof,
        "params": asdict(model.params),
        "loglik": model.loglik,
        "bic": model.bic,
        "n": model.n,
        "data_fingerprint": model.data_fingerprint,
        "diagnostics": model.diagnostics,
    }


def serialize_selection(sel: SelectionResult) -> dict:
    strengths = {}
    for base in ("log10", "natural"):
        for cmp_name, st in sel.strengths(base).items():
            strengths.setdefault(cmp_name, {})[base] = st._asdict()
    # every field of the result, with its models serialized
    return {
        **{f.name: getattr(sel, f.name) for f in fields(sel)},
        "strengths": strengths,
        "models": {label: serialize_fitted(m) for label, m in sel.models.items()},
    }
