"""Arithmetic on the ground set [n] = {1, ..., n}, with n standing in for 0."""


def mod1(x: int, n: int) -> int:
    """Reduce x to its representative in 1..n."""
    return (x - 1) % n + 1

