"""Exception types shared across the package."""


class CCGameError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(CCGameError):
    def __init__(self, field, expected, found):
        self.field = field
        self.expected = expected
        self.found = found
        super().__init__(f"{field}: expected {expected}, found {found}")


class NotPositiveDefinite(CCGameError):
    def __init__(self, name, eigenvalue):
        self.name = name
        self.eigenvalue = float(eigenvalue)
        super().__init__(f"{name}: offending eigenvalue {eigenvalue:.3e}")


class BadProbability(CCGameError):
    def __init__(self, field, value):
        self.field = field
        self.value = float(value)
        super().__init__(f"{field}: {value} not a probability in (0, 1)")


class ScenarioValidationError(CCGameError):
    """Aggregates every violation found while validating a scenario."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"{len(self.violations)} violation(s): {lines}")


class SchemaError(CCGameError):
    """Malformed input file (unknown keys, missing fields, bad shapes or values)."""


class AllocationTooSmall(CCGameError):
    def __init__(self, per_row, guard=1e-12):
        self.per_row = float(per_row)
        super().__init__(
            f"per-row risk {per_row:.3e} below inverse-CDF domain guard {guard:.0e}"
        )


class DomainError(CCGameError):
    """Argument outside the guarded domain of a numerical routine."""


class DegenerateReference(CCGameError):
    def __init__(self, i, j, t, separation):
        self.pair = (i, j)
        self.t = t
        self.separation = float(separation)
        super().__init__(
            f"agents ({i},{j}) coincide or overflow in the reference at t={t} "
            f"(weighted separation {separation:.3e}); cannot pick a reference direction"
        )


class SingularStageSystem(CCGameError):
    def __init__(self, t, rcond):
        self.t = t
        self.rcond = float(rcond)
        super().__init__(
            f"stage {t}: joint gain system numerically singular (rcond ~ {rcond:.3e}); "
            "Nash equilibrium may be non-unique"
        )


class StepSizeUnavailable(CCGameError):
    """eta='auto' requested but the Lipschitz constant is zero while some
    constraint row is violated and cannot be influenced by the duals."""


class FactorizationFailure(CCGameError):
    def __init__(self, t, eigenvalue):
        self.t = t
        self.eigenvalue = float(eigenvalue)
        super().__init__(
            f"W[{t}] not positive semidefinite (eigenvalue {eigenvalue:.3e})"
        )


class AllSeedsFailed(CCGameError, RuntimeError):
    """Every seeded episode of a batch failed; no statistics can be formed."""


class FingerprintMismatch(CCGameError):
    def __init__(self, expected, found):
        self.expected = expected
        self.found = found
        super().__init__(
            f"policy was solved for scenario {expected[:12]}..., got {found[:12]}..."
        )
