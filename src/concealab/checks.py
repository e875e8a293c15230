"""One checker for the JSON the program reads (the config, the schema file
and the model header) and the cross-field rules of a config.

A kind is int (a JSON integer), float (a finite JSON number), str or bool; a
Range of int or float; a string, that value itself; None, null; [kind], a
list of such items; a dict, a JSON object whose dotted paths (null where
absent) hold their kinds; a dataclass, a JSON object that builds it, each
field of the kind its annotation gives (a scalar, a dataclass, X | None or
tuple[X, ...]); a tuple, any one of its kinds.
"""
from __future__ import annotations

import dataclasses
import functools
import sys
import typing

from .dataset import fraction_rows
from .errors import SpecError
from .nn.spec import DETECTOR_SPECS

NOUNS = {int: "a JSON integer", float: "a finite JSON number", str: "a JSON string",
         bool: "a JSON boolean", None: "null"}


@dataclasses.dataclass(frozen=True)
class Range:
    """A number of kind (int or float), >= lo (> lo when above is set) and <= hi unless None."""
    kind: type
    lo: float
    hi: float | None = None
    above: bool = False


def _scalar(kind, value) -> bool:
    if kind is float:       # NaN, the infinities and an int past any float fail the comparison
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    return type(value) is kind


def describe(kind) -> str:
    """What a value of kind is, as error lines name it."""
    if isinstance(kind, tuple):
        nouns = [describe(k) for k in kind]
        return nouns[0] if len(nouns) == 1 else f"{', '.join(nouns[:-1])} or {nouns[-1]}"
    if isinstance(kind, Range):
        if kind.hi is None:
            return f"{NOUNS[kind.kind]} {'>' if kind.above else '>='} {kind.lo}"
        return f"{NOUNS[kind.kind]} in {'(' if kind.above else '['}{kind.lo}, {kind.hi}]"
    if isinstance(kind, list | dict) or dataclasses.is_dataclass(kind):
        return "a list" if isinstance(kind, list) else "a JSON object"
    return f'"{kind}"' if isinstance(kind, str) else NOUNS[kind]


@functools.cache
def _field_kinds(cls) -> dict:
    """Each field of dataclass cls -> (its kind, whether the JSON must give it)."""
    def kind(hint):
        args = typing.get_args(hint)
        if typing.get_origin(hint) is tuple:                       # tuple[X, ...]
            return [kind(args[0])]
        return tuple(None if a is type(None) else kind(a) for a in args) if args else hint

    hints = typing.get_type_hints(cls)
    return {f.name: (kind(hints[f.name]), f.default is f.default_factory is dataclasses.MISSING)
            for f in dataclasses.fields(cls)}


def check(path: str, kind, value, error=SpecError) -> None:
    """Raise error unless value, found at path, is of kind. A path that ends
    in a space, such as "config ", is a prefix: a dict's keys follow it as they are."""
    for k in kind if isinstance(kind, tuple) else (kind,):
        if isinstance(k, list) and isinstance(value, list):
            for n, item in enumerate(value):
                check(f"{path}[{n}]", k[0], item, error)
            return
        if isinstance(k, dict) and isinstance(value, dict):
            for key, sub in k.items():
                # the tables on a dotted path are JSON objects: merged, or checked earlier
                item = leaf(value, key)
                if dataclasses.is_dataclass(sub) and isinstance(item, dict):
                    # a field with a path of its own is checked there, not by its annotation
                    item = {f: v for f, v in item.items() if f"{key}.{f}" not in k}
                check(path + key if path.endswith(" ") else f"{path}.{key}", sub, item, error)
            return
        if dataclasses.is_dataclass(k) and isinstance(value, dict):
            known = _field_kinds(k)
            for key, item in value.items():
                if key not in known:
                    raise error(f"{path}.{key} is an unknown key")
                check(f"{path}.{key}", known[key][0], item, error)
            for name, (_, required) in known.items():
                if required and name not in value:
                    raise error(f"{path} needs {name!r}")
            return
        if isinstance(k, Range):
            if _scalar(k.kind, value) and (value > k.lo or value == k.lo and not k.above) \
                    and (k.hi is None or value <= k.hi):
                return
        elif isinstance(k, type) and _scalar(k, value) or isinstance(k, str | None) and value == k:
            return
    raise error(f"{path.rstrip()} must be {describe(kind)}, got {value!r}")


def leaf(tree: dict, path: str):
    """The value at a dotted path of JSON objects, None where its last key is absent."""
    return functools.reduce(dict.get, path.split("."), tree)


# Cross-field rules of a "simulator" config, whose row counts it fixes: the
# leaves each reads and a function of their values that returns the path,
# the need and the value of a broken rule. "dataset.scenarios" stands for
# the scenarios it lists or "auto" makes, "attack.kind" for its entry of
# evaluation.ATTACKS, and "attacks" for the entries of the attacks that the
# command runs.

def _windows(steps: int, kind: str):
    # the detector's windows split into training and validation rows; the
    # window does not depend on the channel count
    m = DETECTOR_SPECS[kind](1).window - 1
    if steps - m < 2:
        return "dataset.steps", f"at least {m + 2} for two {m + 1}-row {kind} windows", steps


def _eavesdropped(attack, p: float, fractions: list, steps: int):
    # each learning fraction leaves its generator a training and a validation row
    asked = [("attack.fraction", p)] if attack.generator else []
    for path, q in asked + [(f"evaluation.fractions[{n}]", q) for n, q in enumerate(fractions)]:
        if fraction_rows(steps, q) < 2:
            return path, f"large enough to eavesdrop 2 of the {steps} normal rows", q


def _replay_start(attacks: list, offset: int, scenarios):
    first = min((sc.start for sc in scenarios), default=offset)
    if any(attack.replays for attack in attacks) and offset > first:
        return "attack.offset", f"at most {first}, the first attacked step", offset


RULES = (
    (("dataset.steps", "detector.kind"), _windows),
    (("attack.kind", "attack.fraction", "evaluation.fractions", "dataset.steps"), _eavesdropped),
    (("attacks", "attack.offset", "dataset.scenarios"), _replay_start),
)


def check_rules(cfg: dict, given: dict) -> None:
    """Raise SpecError unless a "simulator" config keeps every rule of RULES;
    given holds the values of the paths that stand for more than their leaf."""
    for paths, rule in RULES:
        broken = rule(*[given[p] if p in given else leaf(cfg, p) for p in paths])
        if broken:
            raise SpecError("config %s must be %s, got %r" % broken)
