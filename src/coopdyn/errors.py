"""Error types shared by the library and the command-line harness."""


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


def _check_count(name: str, value, low: int) -> None:
    """`value` must be an int >= low; bools are rejected although
    `isinstance(True, int)` holds."""
    if not isinstance(value, int) or isinstance(value, bool) or value < low:
        raise ValidationError(f"{name} must be an integer >= {low}, got {value!r}")
