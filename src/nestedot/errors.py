"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Invalid input data or parameters."""


class SizeGuardError(ValidationError):
    """Instance exceeds the size guard of an exhaustive solver."""


class NotCausalError(ValidationError):
    """Operation requires a causal coupling."""


class AlreadyExtremeError(ValidationError):
    """Coupling is Monge-adapted, hence already an extreme point."""
