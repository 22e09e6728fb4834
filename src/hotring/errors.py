"""Exception types shared across the library."""


class HotringError(Exception):
    pass


class IllDefined(HotringError):
    """Structure constants incompatible with the generator orders."""

    def __init__(self, i, j):
        self.i, self.j = i, j
        super().__init__(f"product of generators {i} and {j} is not well defined")


class NotAssociative(HotringError):
    def __init__(self, i, j, l, left, right):
        self.i, self.j, self.l = i, j, l
        self.left, self.right = left, right
        super().__init__(
            f"(g{i}*g{j})*g{l} = {left} differs from g{i}*(g{j}*g{l}) = {right}")


class BadUnit(HotringError):
    pass


class UnknownVariable(HotringError):
    pass


class IndexOutOfRange(HotringError):
    pass


class MembershipViolation(HotringError):
    pass


class MalformedInput(HotringError):
    """Parsed input that lacks a field or holds an entry of the wrong shape."""


class BudgetExceeded(HotringError):
    def __init__(self, required, budget):
        self.required = required
        self.budget = budget
        super().__init__(f"search needs {required} candidates, budget is {budget}")


class NotSurjective(HotringError):
    pass


class VerificationFailure(HotringError):
    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class DepthExceeded(HotringError):
    pass
