"""Shared exception types and the one check of a counted cap."""


class GlabError(Exception):
    pass


class CapExceededError(GlabError):
    """An enumeration would exceed a configured combinatorial cap."""


def check_cap(count: int, cap: int, what: str):
    """Refuse ``count`` things (``what``, a plural noun) above ``cap``."""
    if count > cap:
        raise CapExceededError(f"{count} {what} exceed the cap {cap}")
