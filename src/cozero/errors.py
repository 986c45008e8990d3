"""Shared exception types."""


class EmptyGraphError(ValueError):
    """Raised when n is prime: Z_n has no non-zero non-unit elements."""

    def __init__(self, n: int):
        self.n = n
        super().__init__(f"n = {n} is prime; the cozero-divisor graph is empty")


class VertexCapError(RuntimeError):
    """Raised when a full-graph build would exceed the vertex cap."""

    def __init__(self, n: int, vertex_count: int, cap: int):
        self.n = n
        self.vertex_count = vertex_count
        self.cap = cap
        super().__init__(
            f"n = {n} needs {vertex_count} vertices, above the cap of {cap}"
        )


class VertexBoundError(VertexCapError):
    """Raised before n is factored: a lower bound on its vertex count exceeds the cap."""

    def __str__(self) -> str:
        return (
            f"n = {self.n} needs at least {self.vertex_count} vertices, "
            f"above the cap of {self.cap}"
        )


class ConvergenceError(RuntimeError):
    """Eigensolver hit its iteration cap; carries the residual, read when printed."""

    def __init__(self, message: str, residual: float):
        self.residual = residual
        super().__init__(message)

    def __str__(self) -> str:
        return f"{self.args[0]} (residual {self.residual:.3e})"
