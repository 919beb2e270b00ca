"""Exception types shared across the package."""


class BmrnnError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatchError(BmrnnError, ValueError):
    """Operands have incompatible shapes; the message names both."""

    def __init__(self, op: str, left, right):
        self.op = op
        self.left = tuple(left)
        self.right = tuple(right)
        super().__init__(f"{op}: incompatible shapes {self.left} and {self.right}")


class DataError(BmrnnError):
    """A dataset file or manifest entry is missing, truncated, or inconsistent."""

    def __init__(self, message: str, path=None, story_id=None):
        self.path = path
        self.story_id = story_id
        detail = message
        if path is not None:
            detail += f" (file: {path}"
            detail += f", story: {story_id})" if story_id is not None else ")"
        elif story_id is not None:
            detail += f" (story: {story_id})"
        super().__init__(detail)


class DivergenceError(BmrnnError):
    """Training left the finite range; names the story and step where it was seen."""

    def __init__(self, story_id: str, epoch: int, step: int, what: str = "non-finite loss"):
        self.story_id = story_id
        self.epoch = epoch
        self.step = step
        super().__init__(f"{what} at epoch {epoch}, step {step}, story {story_id!r}")


class ConfigError(BmrnnError, ValueError):
    """A config file or CLI option is invalid (unknown key, bad value)."""
