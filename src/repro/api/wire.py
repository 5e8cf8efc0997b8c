"""Wire codec for :class:`~repro.api.request.RunRequest`.

The ``repro.request/1`` schema makes a run request a first-class wire
object: ``RunRequest.to_json()`` emits only the knobs the request
actually sets (so a round-tripped request resolves *identically* to a
locally built one — defaulting still happens in exactly one place,
:meth:`RunRequest.resolve`), and :func:`request_from_json` parses
strictly — unknown fields, wrong types and malformed config/scope
overrides are all rejected with a :class:`RequestSchemaError` naming
every violation, never silently dropped.  A retired field is the one
exception: its value is still checked, then dropped, so queued records
and older clients keep parsing under the same schema version.

Capability validation happens at deserialization time when the caller
names the target scenario: the service front-end passes the scenario so
an unsupported knob surfaces as a structured
:class:`~repro.api.capabilities.CapabilityError` (whose
``cli_message()`` becomes the 4xx error body) before the request is
ever queued.

Config and scope overrides travel as *overrides against the defaults*
(the same representation ``PipelineConfig.with_overrides`` and the
sweep grid parser use), so the wire format stays stable when new
fields grow new defaults.
"""

from __future__ import annotations

import enum
import typing
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.api.request import RunRequest

#: The published request schema identifier.  Bump the trailing version
#: on any backwards-incompatible change; the API-surface lock pins it.
REQUEST_SCHEMA = "repro.request/1"

#: Wire-carried scalar knobs and the JSON types they accept.
_SCALAR_FIELDS: dict[str, tuple[type, ...]] = {
    "n_traces": (int,),
    "reps": (int,),
    "chunk_size": (int,),
    "jobs": (int,),
    "seed": (int,),
    "precision": (str,),
    "retries": (int,),
    "chunk_timeout": (int, float),
    "checkpoint": (str,),
    "resume": (bool,),
    "manifest": (str,),
}

#: The values the retired ``reduce`` field accepted.  It chose where a
#: chunk folds; every chunk now folds where it is acquired, so a record
#: that still carries it is checked against these and the field dropped.
_RETIRED_REDUCE_VALUES = ("parent", "worker")


class RequestSchemaError(ValueError):
    """A JSON record does not conform to :data:`REQUEST_SCHEMA`."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


# -- value codecs -------------------------------------------------------


def _jsonify_field(value: Any) -> Any:
    """One config/scope field value as a JSON scalar."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return list(value)
    return value


def _field_annotations(cls) -> dict[str, Any]:
    from dataclasses import fields

    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _coerce_field(cls_name: str, key: str, value: Any, annotation: Any) -> Any:
    """Parse one JSON override value against a dataclass field type."""
    import types

    origin = typing.get_origin(annotation)
    if origin in (typing.Union, types.UnionType):
        arguments = [a for a in typing.get_args(annotation) if a is not type(None)]
        if value is None:
            return None
        if len(arguments) == 1:
            annotation = arguments[0]
            origin = typing.get_origin(annotation)
    if isinstance(annotation, type) and issubclass(annotation, enum.Enum):
        for member in annotation:
            if value == member.value:
                return member
        valid = ", ".join(str(m.value) for m in annotation)
        raise RequestSchemaError(
            [f"{cls_name}.{key}: {value!r} is not one of {valid}"]
        )
    if origin is tuple:
        if not isinstance(value, list):
            raise RequestSchemaError([f"{cls_name}.{key}: expected a list"])
        return tuple(value)
    if annotation is bool:
        if not isinstance(value, bool):
            raise RequestSchemaError([f"{cls_name}.{key}: expected a boolean"])
        return value
    if annotation is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise RequestSchemaError([f"{cls_name}.{key}: expected an integer"])
        return value
    if annotation is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise RequestSchemaError([f"{cls_name}.{key}: expected a number"])
        return float(value)
    if annotation is str:
        if not isinstance(value, str):
            raise RequestSchemaError([f"{cls_name}.{key}: expected a string"])
        return value
    raise RequestSchemaError(
        [f"{cls_name}.{key}: values of type {annotation} are not wire-serializable"]
    )


# -- config / scope ------------------------------------------------------


def config_to_json(config: Any) -> dict:
    """A :class:`PipelineConfig` as ``{"name", "overrides"}``."""
    from repro.uarch.config import PipelineConfig

    if not isinstance(config, PipelineConfig):
        raise ValueError(
            f"config must be a PipelineConfig to serialize, got {type(config).__name__}"
        )
    overrides = {
        key: _jsonify_field(value)
        for key, value in sorted(config.overrides_from(PipelineConfig()).items())
    }
    return {"name": config.name, "overrides": overrides}


def config_from_json(record: Any) -> Any:
    from dataclasses import replace

    from repro.uarch.config import PipelineConfig

    if not isinstance(record, dict):
        raise RequestSchemaError(["'config' must be a JSON object"])
    unknown = sorted(set(record) - {"name", "overrides"})
    if unknown:
        raise RequestSchemaError(
            [f"'config' carries unknown key(s): {', '.join(unknown)}"]
        )
    name = record.get("name", PipelineConfig().name)
    if not isinstance(name, str):
        raise RequestSchemaError(["'config.name' must be a string"])
    overrides = record.get("overrides", {})
    if not isinstance(overrides, dict):
        raise RequestSchemaError(["'config.overrides' must be a JSON object"])
    annotations = _field_annotations(PipelineConfig)
    problems = [
        f"'config.overrides' names unknown field {key!r}"
        for key in sorted(set(overrides) - set(annotations))
    ]
    if problems:
        raise RequestSchemaError(problems)
    coerced = {
        key: _coerce_field("config", key, value, annotations[key])
        for key, value in overrides.items()
        if key != "name"
    }
    return replace(PipelineConfig(), name=name, **coerced)


def scope_to_json(scope: Any) -> dict:
    """A :class:`ScopeConfig` as overrides against the defaults."""
    from dataclasses import fields

    from repro.power.scope import ScopeConfig

    if not isinstance(scope, ScopeConfig):
        raise ValueError(
            f"scope must be a ScopeConfig to serialize, got {type(scope).__name__}"
        )
    defaults = ScopeConfig()
    overrides = {
        f.name: _jsonify_field(getattr(scope, f.name))
        for f in fields(ScopeConfig)
        if getattr(scope, f.name) != getattr(defaults, f.name)
    }
    return {"overrides": dict(sorted(overrides.items()))}


def scope_from_json(record: Any) -> Any:
    from dataclasses import replace

    from repro.power.scope import ScopeConfig

    if not isinstance(record, dict):
        raise RequestSchemaError(["'scope' must be a JSON object"])
    unknown = sorted(set(record) - {"overrides"})
    if unknown:
        raise RequestSchemaError(
            [f"'scope' carries unknown key(s): {', '.join(unknown)}"]
        )
    overrides = record.get("overrides", {})
    if not isinstance(overrides, dict):
        raise RequestSchemaError(["'scope.overrides' must be a JSON object"])
    annotations = _field_annotations(ScopeConfig)
    problems = [
        f"'scope.overrides' names unknown field {key!r}"
        for key in sorted(set(overrides) - set(annotations))
    ]
    if problems:
        raise RequestSchemaError(problems)
    coerced = {
        key: _coerce_field("scope", key, value, annotations[key])
        for key, value in overrides.items()
    }
    return replace(ScopeConfig(), **coerced)


# -- requests ------------------------------------------------------------


def request_to_json(request: "RunRequest") -> dict:
    """The ``repro.request/1`` record of one request (set knobs only)."""
    record: dict[str, Any] = {"schema": REQUEST_SCHEMA}
    for name in _SCALAR_FIELDS:
        value = getattr(request, name)
        if value is not None:
            record[name] = value
    if request.grid is not None:
        record["grid"] = [str(axis) for axis in request.grid]
    if request.backend is not None:
        if not isinstance(request.backend, str):
            raise ValueError(
                "a live ExecutionBackend instance is not wire-serializable; "
                "pass a backend policy name instead"
            )
        record["backend"] = request.backend
    if request.config is not None:
        record["config"] = config_to_json(request.config)
    if request.scope is not None:
        record["scope"] = scope_to_json(request.scope)
    return record


def request_from_json(record: Any, scenario: Any = None) -> "RunRequest":
    """Parse (strictly) one ``repro.request/1`` record.

    With ``scenario`` given (a registry :class:`Scenario`), the rebuilt
    request is capability-validated immediately —
    :class:`~repro.api.capabilities.CapabilityError` propagates so edge
    layers can turn ``cli_message()`` into a structured 4xx body.
    """
    from repro.api.request import RunRequest

    problems: list[str] = []
    if not isinstance(record, dict):
        raise RequestSchemaError(
            [f"request must be a JSON object, got {type(record).__name__}"]
        )
    if record.get("schema") != REQUEST_SCHEMA:
        problems.append(
            f"schema must be {REQUEST_SCHEMA!r}, got {record.get('schema')!r}"
        )
    known = set(_SCALAR_FIELDS) | {"schema", "grid", "backend", "config", "scope", "reduce"}
    unknown = sorted(set(record) - known)
    if unknown:
        problems.append(f"unknown field(s): {', '.join(unknown)}")
    if "reduce" in record and record["reduce"] not in _RETIRED_REDUCE_VALUES:
        problems.append(
            f"'reduce' must be one of {_RETIRED_REDUCE_VALUES}, got {record['reduce']!r}"
        )
    kwargs: dict[str, Any] = {}
    for name, types_ in _SCALAR_FIELDS.items():
        if name not in record:
            continue
        value = record[name]
        if isinstance(value, bool) and bool not in types_:
            problems.append(f"{name!r} must be of type {types_[0].__name__}")
        elif not isinstance(value, types_):
            problems.append(f"{name!r} must be of type {types_[0].__name__}")
        else:
            kwargs[name] = value
    if "grid" in record:
        grid = record["grid"]
        if not isinstance(grid, list) or not all(isinstance(a, str) for a in grid):
            problems.append("'grid' must be a list of strings")
        else:
            kwargs["grid"] = tuple(grid)
    if "backend" in record:
        if not isinstance(record["backend"], str):
            problems.append("'backend' must be a policy-name string on the wire")
        else:
            kwargs["backend"] = record["backend"]
    if problems:
        raise RequestSchemaError(problems)
    try:
        if "config" in record:
            kwargs["config"] = config_from_json(record["config"])
        if "scope" in record:
            kwargs["scope"] = scope_from_json(record["scope"])
        request = RunRequest(**kwargs)
    except RequestSchemaError:
        raise
    except (TypeError, ValueError) as error:
        raise RequestSchemaError([str(error)]) from error
    if scenario is not None:
        request.validate(scenario)
    return request
