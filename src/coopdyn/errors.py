"""Error types shared by the library and the CLI, and checks raising them."""

import math
from dataclasses import fields


class ValidationError(ValueError):
    """Bad input: constructor arguments, config values, CLI options."""


class ConfigError(ValidationError):
    """A config file failed schema validation.

    Collects every offending key so a bad file is reported in one pass.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class NumericalIntegrityError(ArithmeticError):
    """An internal numerical guarantee (normalization, finiteness) broke."""


def _check_count(name: str, value, low: int, n_agents: int | None = None) -> None:
    """`value` must be an int >= low, and below `n_agents` when that is
    given; bools are rejected although `isinstance(True, int)` holds."""
    if (not isinstance(value, int) or isinstance(value, bool) or value < low
            or n_agents is not None and value >= n_agents):
        bound = "" if n_agents is None else f" and < n_agents = {n_agents}"
        raise ValidationError(f"{name} must be an integer >= {low}{bound}, got {value!r}")


def _check_discount(discount) -> None:
    """A discount factor must lie in [0, 1)."""
    if not 0.0 <= discount < 1.0:
        raise ValidationError(f"discount must lie in [0, 1), got {discount!r}")


def _check_number(name: str, value) -> None:
    """`value` must be a finite int or float; bools are rejected, as
    `_check_count` rejects them."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValidationError(f"{name} is non-finite: {value!r}")


def _check_unread(values: dict, defaults, where: str) -> None:
    """Refuse the keys of `values` that left `defaults[key]`: the chosen mode never reads them."""
    if unused := [key for key, value in values.items() if value != defaults[key]]:
        raise ValidationError(f"{', '.join(unused)}: used only {where}")


def _check_finite_fields(instance) -> None:
    """Every float field of a dataclass instance must pass `_check_number`
    (annotations are postponed, so a field's type is the string "float")."""
    for field in fields(instance):
        if field.type == "float":
            _check_number(field.name, getattr(instance, field.name))
